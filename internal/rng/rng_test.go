package rng

import (
	"hash/fnv"
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSplitStableIsStable(t *testing.T) {
	a := SplitStable(7, "demand")
	b := SplitStable(7, "demand")
	for i := 0; i < 50; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("SplitStable not stable")
		}
	}
	c := SplitStable(7, "fleet")
	same := true
	a2 := SplitStable(7, "demand")
	for i := 0; i < 20; i++ {
		if a2.Int63() != c.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different names produced identical streams")
	}
}

// TestReseedMatchesSplitStable: a Source reseeded in place, whatever stream
// it was on, draws exactly what a fresh SplitStable of the same seed and
// name draws, for 1,000 draws of each kind the engine uses, and reseeding
// allocates nothing.
func TestReseedMatchesSplitStable(t *testing.T) {
	s := New(99)
	s.Float64()
	for _, seed := range []int64{0, 1, 42, -7, math.MaxInt64} {
		for _, name := range []struct {
			prefix string
			i      int
		}{{"shard-demand-", 0}, {"shard-match-", 17}, {"shard-station-", 490}, {"", -12}, {"x", math.MaxInt}} {
			want := SplitStable(seed, name.prefix+strconv.Itoa(name.i))
			s.Reseed(seed, name.prefix, name.i)
			for d := 0; d < 1000; d++ {
				var got, exp float64
				switch d % 3 {
				case 0:
					got, exp = s.Float64(), want.Float64()
				case 1:
					got, exp = float64(s.Intn(1000)), float64(want.Intn(1000))
				default:
					got, exp = s.Norm(0, 1), want.Norm(0, 1)
				}
				if got != exp {
					t.Fatalf("seed %d name %q%d: draw %d is %v, SplitStable's is %v", seed, name.prefix, name.i, d, got, exp)
				}
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { s.Reseed(5, "shard-station-", 123) }); n != 0 {
		t.Errorf("Reseed allocates %v objects, want 0", n)
	}
}

// TestNameHashIsFNV1a pins the inline name hash to hash/fnv's 64-bit
// FNV-1a, which every stream ever derived from a name was keyed by.
func TestNameHashIsFNV1a(t *testing.T) {
	for _, name := range []string{"", "demand", "shard-match-17", "\xff\x00é"} {
		h := fnv.New64a()
		h.Write([]byte(name))
		if got, want := fnv1a(fnvOffset, name), h.Sum64(); got != want {
			t.Errorf("fnv1a(%q) = %x, hash/fnv = %x", name, got, want)
		}
	}
}

func TestSplitDistinctNames(t *testing.T) {
	s := New(1)
	a := s.Split("a")
	s2 := New(1)
	b := s2.Split("b")
	same := true
	for i := 0; i < 20; i++ {
		if a.Int63() != b.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("Split with different names produced identical streams")
	}
}

func TestUniformRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(10, 20)
		if v < 10 || v >= 20 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	s := New(5)
	for _, mean := range []float64{0.5, 3, 12, 80} {
		n := 20000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(s.Poisson(mean))
		}
		got := sum / float64(n)
		tol := 4 * math.Sqrt(mean/float64(n)) // ~4 sigma
		if math.Abs(got-mean) > tol+0.05 {
			t.Errorf("Poisson(%v) sample mean %v (tol %v)", mean, got, tol)
		}
	}
}

func TestPoissonNonPositiveMean(t *testing.T) {
	s := New(5)
	if s.Poisson(0) != 0 || s.Poisson(-2) != 0 {
		t.Fatal("Poisson of non-positive mean should be 0")
	}
}

func TestExpMeanAndPanic(t *testing.T) {
	s := New(9)
	n := 20000
	var sum float64
	for i := 0; i < n; i++ {
		v := s.Exp(2.0)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.03 {
		t.Errorf("Exp(2) sample mean %v, want ~0.5", mean)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	s.Exp(0)
}

func TestWeightedChoiceDistribution(t *testing.T) {
	s := New(11)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	n := 30000
	for i := 0; i < n; i++ {
		counts[s.WeightedChoice(weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight option chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("weight ratio %v, want ~3", ratio)
	}
}

func TestWeightedChoiceEdgeCases(t *testing.T) {
	s := New(12)
	// All-zero weights: uniform fallback, must still return valid index.
	for i := 0; i < 100; i++ {
		idx := s.WeightedChoice([]float64{0, 0, 0})
		if idx < 0 || idx > 2 {
			t.Fatalf("invalid index %d", idx)
		}
	}
	// Negative weights treated as zero.
	for i := 0; i < 100; i++ {
		if idx := s.WeightedChoice([]float64{-5, 1}); idx != 1 {
			t.Fatalf("negative weight chosen")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("empty weights did not panic")
		}
	}()
	s.WeightedChoice(nil)
}

func TestWeightedChoiceAlwaysValidProperty(t *testing.T) {
	s := New(99)
	f := func(ws []float64) bool {
		if len(ws) == 0 {
			return true
		}
		idx := s.WeightedChoice(ws)
		return idx >= 0 && idx < len(ws)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormStats(t *testing.T) {
	s := New(21)
	n := 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Norm(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Norm mean %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("Norm stddev %v, want ~2", math.Sqrt(variance))
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(31)
	p := s.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(41)
	for i := 0; i < 1000; i++ {
		if v := s.LogNormal(1, 0.5); v <= 0 {
			t.Fatalf("LogNormal returned non-positive %v", v)
		}
	}
}
