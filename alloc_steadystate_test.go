package fairmove

import (
	"testing"

	"repro/internal/sim"
)

// TestSimStepZeroAllocSteadyState asserts the acceptance criterion of the
// zero-allocation pass directly: once every reusable buffer has reached its
// high-water mark, stepping the simulator allocates nothing. Two full
// warm-up episodes on the same seed reach the marks and prove Reset keeps
// them (a Reset that dropped working storage would re-pay growth in the
// measured episode). The subtest names the engine configuration measured:
// the sharded engine with one shard.
func TestSimStepZeroAllocSteadyState(t *testing.T) {
	t.Run("sharded1", func(t *testing.T) {
		env := sim.New(benchCity(t), sim.DefaultOptions(1), 42)
		for ep := 0; ep < 2; ep++ {
			for !env.Done() {
				env.Step(nil)
			}
			env.Reset(42)
		}
		const runs = 50
		allocs := testing.AllocsPerRun(runs, func() {
			if env.Done() {
				t.Fatal("episode shorter than the measured run; shrink runs")
			}
			env.Step(nil)
		})
		if allocs != 0 {
			t.Errorf("steady-state Step allocates %v/op, want 0", allocs)
		}
	})
}
