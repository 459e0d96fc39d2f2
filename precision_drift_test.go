package fairmove

// Precision-drift guard for the float32 tensor backend. The nn rewrite
// changed arithmetic precision (float64 → float32 storage and kernels), so
// trained-policy trajectories legitimately diverge bit-for-bit from the old
// engine. What must NOT drift is the science: the end-to-end fairness and
// efficiency metrics of a trained FairMove run have to land within a narrow
// band of pinned values. The pins were first measured on the last float64
// commit (4f32e9b) and re-measured with this exact configuration after the
// switch to the single region-sharded engine and PCG streams, which moved
// every trajectory (TestPaperShapeRanking guards that bump). The tolerances
// are deliberately tight — half-precision bugs, a broken activation, or a
// mis-scaled gradient all blow past them, while benign rounding drift does
// not.
//
// If a deliberate algorithmic change moves these metrics, re-pin the values
// and say why in the commit, exactly like a golden-fixture bump.

import (
	"math"
	"testing"
)

func TestPrecisionDriftFromFloat64Pins(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a policy; skipped in short mode")
	}
	const (
		pinMeanPE   = 24.14051807 // CNY/h, tinyConfig(2)
		pinPF       = 63.7035326
		pinFSpatial = 0.6517597174
		pinServed   = 458
	)
	s, err := NewSystem(tinyConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TrainWithOptions(TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	ev, err := s.Evaluate(FairMove)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("MeanPE=%.10g PF=%.10g FSpatial=%.10g served=%d", ev.MeanPE, ev.PF, ev.FSpatial, ev.ServedRequests)

	// Relative tolerances: the tiny fixture's metrics are noisy functions of
	// individual match decisions, so a handful of flipped decisions moves
	// them by a few percent — precision bugs move them by tens.
	relCheck := func(name string, got, pin, tol float64) {
		if rel := math.Abs(got-pin) / math.Abs(pin); rel > tol {
			t.Errorf("%s = %.8g drifted %.2f%% from pin %.8g (tolerance %.0f%%)",
				name, got, 100*rel, pin, 100*tol)
		}
	}
	relCheck("MeanPE", ev.MeanPE, pinMeanPE, 0.10)
	relCheck("PF", ev.PF, pinPF, 0.10)
	relCheck("FSpatial", ev.FSpatial, pinFSpatial, 0.10)
	relCheck("ServedRequests", float64(ev.ServedRequests), pinServed, 0.10)
}
