package fairmove

// Paper-shape guard for golden bumps. A deliberate change to the simulator
// or its random streams moves every trajectory, so no digest can pin the
// science across it. What must survive is the shape of the comparison: the
// ranking of the six methods by mean profit efficiency and by profit
// fairness. One tiny fixture cannot carry that on its own — on a single
// seed, methods a few percent apart trade places under any reseed — so the
// guard ranks each method's mean over ten seeds of tinyConfig. The pinned
// means were measured with CompareAll before the switch to the single
// region-sharded engine and PCG streams.
//
// If a deliberate change reorders the methods, that is a change to the
// paper's findings: re-pin only with the evidence in the commit.

import (
	"fmt"
	"sort"
	"testing"
)

func TestPaperShapeRanking(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every learner on ten fixtures; skipped in short mode")
	}
	pins := map[Method]struct{ pe, pf float64 }{
		GT:       {25.0151, 56.2996},
		SD2:      {14.0527, 45.8987},
		TQL:      {19.0269, 74.8162},
		DQN:      {20.5124, 77.6750},
		TBA:      {22.1694, 72.7463},
		FairMove: {23.7743, 76.5847},
	}
	const seeds = 10
	pe := make(map[Method]float64)
	pf := make(map[Method]float64)
	for seed := int64(1); seed <= seeds; seed++ {
		s, err := NewSystem(tinyConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		cs, err := s.CompareAll()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cs {
			pe[c.Method] += c.MeanPE / seeds
			pf[c.Method] += c.PF / seeds
		}
	}
	for _, m := range Methods() {
		t.Logf("%-8s mean PE %.4f (pin %.4f)  mean PF %.4f (pin %.4f)", m, pe[m], pins[m].pe, pf[m], pins[m].pf)
	}
	pinPE, pinPF := make(map[Method]float64), make(map[Method]float64)
	for m, p := range pins {
		pinPE[m], pinPF[m] = p.pe, p.pf
	}
	if got, want := rankBy(pe), rankBy(pinPE); got != want {
		t.Errorf("ranking by mean PE changed: %s, pinned %s", got, want)
	}
	if got, want := rankBy(pf), rankBy(pinPF); got != want {
		t.Errorf("ranking by mean PF changed: %s, pinned %s", got, want)
	}
}

// rankBy lists the methods by descending value.
func rankBy(v map[Method]float64) string {
	ms := Methods()
	sort.SliceStable(ms, func(i, j int) bool { return v[ms[i]] > v[ms[j]] })
	return fmt.Sprint(ms)
}
