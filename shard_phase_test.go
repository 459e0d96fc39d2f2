package fairmove

// Per-phase wall-clock profile of the simulator — the measurement
// behind the shard-scaling table in EXPERIMENTS.md. The sharded Step is a
// sequence of parallel phases separated by serial barriers; when adding
// shards stops helping (BenchmarkEngineStepSharded slower at shards=4 than
// at shards=2), this profile says which phase absorbed the time. The same
// shard.phase.* timers feed `fairmove serve`'s /metrics.

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestShardPhaseProfile steps one full episode per shard count with the
// engine's phase timers enabled, checks that every once-per-slot phase timed
// every slot, and logs the per-phase totals. Run at -benchscale=full to
// profile the paper-scale fleet:
//
//	go test -run TestShardPhaseProfile -benchscale=full -v .
func TestShardPhaseProfile(t *testing.T) {
	phases := []string{
		"begin_slot_apply", "route_migrants", "generate_and_match",
		"run_minute", "end_slot",
	}
	city := benchCity(t)
	for _, k := range []int{1, 2, 4} {
		env := sim.New(city, policy.EpisodeOptions(1, k), 42)
		reg := telemetry.NewRegistry()
		env.SetTelemetry(reg)
		env.Reset(42)
		slots := 0
		for !env.Done() {
			env.Step(nil)
			slots++
		}
		var step float64
		for _, name := range phases {
			st := reg.Timer("shard.phase." + name).Stat()
			step += float64(st.TotalNs)
			if st.Count < int64(slots) {
				t.Errorf("shards=%d: %s timed %d times in %d slots", env.Shards(), name, st.Count, slots)
			}
		}
		t.Logf("shards=%d: %d slots, %.1f ms timed total", env.Shards(), slots, step/1e6)
		for _, name := range phases {
			st := reg.Timer("shard.phase." + name).Stat()
			total := float64(st.TotalNs)
			t.Logf("  %-20s %9.1f ms  (%4.1f%%, %d observations)",
				name, total/1e6, 100*total/step, st.Count)
		}
	}
}
