package fairmove

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// tinyConfig keeps facade tests fast.
func tinyConfig(seed int64) Config {
	return Config{
		Seed:          seed,
		Regions:       60,
		Stations:      12,
		Fleet:         60,
		SlotMinutes:   10,
		Days:          1,
		Alpha:         0.6,
		TrainEpisodes: 1,
		TrainDays:     1,
	}
}

func TestNewSystemDefaults(t *testing.T) {
	s, err := NewSystem(Config{Seed: 1, Fleet: 50, Regions: 60, Stations: 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	if cfg.TripsPerDay != 15*50 {
		t.Errorf("TripsPerDay default = %d, want %d", cfg.TripsPerDay, 15*50)
	}
	if cfg.Alpha != 0.6 || cfg.Days != 2 || cfg.SlotMinutes != 10 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
}

func TestNewSystemRejectsBadConfig(t *testing.T) {
	if _, err := NewSystem(Config{Seed: 1, Regions: 2, Stations: 1, Fleet: 1}); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestTrainAndEvaluate(t *testing.T) {
	if testing.Short() {
		t.Skip("full training pipeline; determinism_test.go covers the short tier")
	}
	s, err := NewSystem(tinyConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Train()
	if rep.Episodes != 1 || len(rep.MeanReward) != 1 {
		t.Fatalf("train report wrong: %+v", rep)
	}
	if rep.Transitions == 0 {
		t.Fatal("no training transitions")
	}
	ev, err := s.Evaluate(FairMove)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Method != FairMove || ev.ServedRequests == 0 {
		t.Fatalf("evaluation report wrong: %+v", ev)
	}
	if math.IsNaN(ev.MeanPE) {
		t.Fatal("NaN PE")
	}
}

func TestEvaluateAllMethods(t *testing.T) {
	if testing.Short() {
		t.Skip("full training pipeline; determinism_test.go covers the short tier")
	}
	s, err := NewSystem(tinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods() {
		ev, err := s.Evaluate(m)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if ev.ServedRequests == 0 {
			t.Fatalf("%s served nothing", m)
		}
	}
	if _, err := s.Evaluate(Method("bogus")); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestCompareAllIdenticalDemand(t *testing.T) {
	if testing.Short() {
		t.Skip("full training pipeline; determinism_test.go covers the short tier")
	}
	s, err := NewSystem(tinyConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	cmps, err := s.CompareAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(cmps) != len(Methods()) {
		t.Fatalf("%d comparisons, want %d", len(cmps), len(Methods()))
	}
	// All methods consume the same demand stream. Requests straddling the
	// warmup boundary may be served before it under one policy but expire
	// after it under another, so totals match only within a small margin.
	total := cmps[0].ServedRequests + cmps[0].UnservedRequests
	for _, c := range cmps {
		got := c.ServedRequests + c.UnservedRequests
		diff := got - total
		if diff < 0 {
			diff = -diff
		}
		if diff > total/50+5 {
			t.Fatalf("%s saw %d requests, others %d — demand not identical", c.Method, got, total)
		}
	}
	// GT compared to itself must be the zero point of every percentage.
	g := cmps[0]
	if g.Method != GT {
		t.Fatal("first comparison is not GT")
	}
	if g.PRCT != 0 || g.PRIT != 0 || g.PIPE != 0 || g.PIPF != 0 {
		t.Fatalf("GT vs GT percentages nonzero: %+v", g)
	}
}

func TestAlphaSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full training pipeline; determinism_test.go covers the short tier")
	}
	s, err := NewSystem(tinyConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := s.AlphaSweep([]float64{1.0, 0.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("sweep shape wrong: %+v", pts)
	}
	if pts[0].Alpha != 0 || pts[1].Alpha != 1 {
		t.Fatalf("alphas not sorted: %+v", pts)
	}
	for _, p := range pts {
		if math.IsNaN(p.Reward) || math.IsNaN(p.MeanPE) || math.IsNaN(p.PF) {
			t.Fatalf("NaN sweep point: %+v", p)
		}
		if p.MeanPE == 0 {
			t.Fatalf("α=%v point was not evaluated: %+v", p.Alpha, p)
		}
	}
}

// TestSaveLoadPolicy round-trips a trained policy through the checkpoint
// codec: a fresh System that loads the saved file evaluates exactly like the
// System that trained it, and a junk file is rejected.
func TestSaveLoadPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("full training pipeline; determinism_test.go covers the short tier")
	}
	s, err := NewSystem(tinyConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	s.Train()
	path := filepath.Join(t.TempDir(), "fm.fmck")
	if err := s.SavePolicy(path); err != nil {
		t.Fatal(err)
	}
	s2, err := NewSystem(tinyConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.LoadPolicy(path); err != nil {
		t.Fatal(err)
	}
	a, err := s.Evaluate(FairMove)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s2.Evaluate(FairMove)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatalf("loaded policy evaluates differently: %+v vs %+v", a, b)
	}
	junk := filepath.Join(t.TempDir(), "junk.fmck")
	if err := os.WriteFile(junk, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s2.LoadPolicy(junk); err == nil {
		t.Fatal("junk policy file accepted")
	}
}
