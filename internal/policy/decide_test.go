package policy

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/synth"
)

// TestDecideScratchIsPerTile decides the full-scale fleet at slot 0, when
// all 20,130 taxis are vacant, and bounds what the actor net and the
// Decider retain afterwards: per worker block the inference tiles (512 rows
// of the 55 inputs and of two 64-wide layer outputs) plus a constant for
// the block's GEMM packing space, tile masks, softmax row and timings; per
// row at most 16 bytes, where the sampled decide keeps a stream value and an
// action index (9 bytes). A batch-sized observation matrix, activation
// arena, mask array or probability matrix would exceed it.
func TestDecideScratchIsPerTile(t *testing.T) {
	city, err := synth.Build(synth.FullScaleConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	env := sim.New(city, sim.DefaultOptions(1), 42)
	env.Reset(42)
	vacant := env.VacantTaxis()
	n := len(vacant)
	if n != 20130 {
		t.Fatalf("%d vacant taxis at slot 0, want the whole 20,130-taxi fleet", n)
	}
	const tile, hidden, blockConst = 512, 64, 32 << 10
	for _, workers := range []int{1, 2} {
		net := nn.NewMLP(rng.New(1), []int{sim.FeatureSize, hidden, hidden, sim.NumActions}, nn.ReLU, nn.Identity)
		var d Decider
		before := retainedBytes(net, &d)
		if acts := d.Act(env, net, rng.New(2), vacant, workers); len(acts) != n {
			t.Fatalf("workers=%d: %d actions for %d taxis", workers, len(acts), n)
		}
		grown := retainedBytes(net, &d) - before
		perBlock := workers * (tile*(sim.FeatureSize+2*hidden)*4 + blockConst)
		perRow := n * 16
		if grown > perBlock+perRow {
			t.Fatalf("workers=%d: decide retains %d bytes, bound %d per block + %d per row", workers, grown, perBlock, perRow)
		}
		t.Logf("workers=%d: retains %d bytes, bound %d", workers, grown, perBlock+perRow)
	}
}

// retainedBytes sums the bytes reachable from roots through pointers and
// slice backing arrays, each allocation counted once. Func, map, interface
// and channel values are not followed.
func retainedBytes(roots ...any) int {
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value) int
	walk = func(v reflect.Value) int {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] {
				return 0
			}
			seen[v.Pointer()] = true
			return int(v.Type().Elem().Size()) + walk(v.Elem())
		case reflect.Slice:
			if v.IsNil() || seen[v.Pointer()] {
				return 0
			}
			seen[v.Pointer()] = true
			total := v.Cap() * int(v.Type().Elem().Size())
			if holdsRefs(v.Type().Elem()) {
				for i := 0; i < v.Len(); i++ {
					total += walk(v.Index(i))
				}
			}
			return total
		case reflect.Struct:
			total := 0
			for i := 0; i < v.NumField(); i++ {
				total += walk(v.Field(i))
			}
			return total
		case reflect.Array:
			total := 0
			if holdsRefs(v.Type().Elem()) {
				for i := 0; i < v.Len(); i++ {
					total += walk(v.Index(i))
				}
			}
			return total
		}
		return 0
	}
	total := 0
	for _, r := range roots {
		total += walk(reflect.ValueOf(r))
	}
	return total
}

// holdsRefs reports whether a value of type t can hold a pointer or slice
// retainedBytes follows.
func holdsRefs(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice:
		return true
	case reflect.Array:
		return holdsRefs(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsRefs(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestDecideRunsMatchSerialDraws forces the sampled decide to end a run of
// rows after about one stream value in seven, as it does after a value
// that might not decide its row's draw, and checks that the actions and
// the stream position afterwards are those of a serial per-taxi loop:
// Observe, forward, masked softmax, WeightedChoice. It runs a trained-like
// net and one with NaN weights, whose rows all draw uniformly.
func TestDecideRunsMatchSerialDraws(t *testing.T) {
	decides, cuts := drawDecides, 0
	t.Cleanup(func() { drawDecides = decides })
	drawDecides = func(u uint64) bool {
		if u%7 == 0 {
			cuts++
			return false
		}
		return decides(u)
	}

	city, err := synth.Build(synth.TestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, nanWeights := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			net := nn.NewMLP(rng.New(1), []int{sim.FeatureSize, 32, sim.NumActions}, nn.ReLU, nn.Identity)
			if nanWeights {
				for _, l := range net.Layers {
					for i := range l.W.Data {
						l.W.Data[i] = float32(math.NaN())
					}
				}
			}
			env := sim.New(city, sim.DefaultOptions(1), 42)
			env.Reset(42)
			var d Decider
			got, want := rng.New(5), rng.New(5)
			for slot := 0; slot < 6; slot++ {
				vacant := append([]int(nil), env.VacantTaxis()...)
				acts := d.Act(env, net, got, vacant, workers)
				probs := make([]float64, sim.NumActions)
				for _, id := range vacant {
					obs := env.Observe(id)
					nn.SoftmaxInto(net.Forward1(obs.Features), obs.Mask[:], probs)
					if a := sim.ActionFromIndex(want.WeightedChoice(probs)); acts[id] != a {
						t.Fatalf("nan=%v workers=%d slot %d taxi %d: action %+v, serial %+v", nanWeights, workers, slot, id, acts[id], a)
					}
				}
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("nan=%v workers=%d slot %d: stream at %#x after the decide, serial loop at %#x", nanWeights, workers, slot, g, w)
				}
				env.Step(acts)
			}
		}
	}
	if cuts < 100 {
		t.Fatalf("only %d runs were cut", cuts)
	}
	t.Logf("%d runs cut", cuts)
}
