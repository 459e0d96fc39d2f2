package serve

import (
	"testing"

	"repro/internal/sim"
)

// TestParseBatchAllocatesOnce: an accepted batch costs one allocation, the
// events slice, at any length; the decoder itself allocates nothing per
// event. Bodies are recorded feed events, GPS fixes and requests mixed.
func TestParseBatchAllocatesOnce(t *testing.T) {
	city := microCity(t, 5)
	events := RecordFeed(city, sim.DefaultOptions(1), 5, 0)
	for _, n := range []int{1, 16, 256, DefaultMaxBatch} {
		if n > len(events) {
			t.Fatalf("recorded %d events, want at least %d", len(events), n)
		}
		body, err := EncodeBatch(events[:n])
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ParseBatch(body, DefaultMaxBatch); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("ParseBatch of %d events: %.0f allocations, want 1", n, allocs)
		}
	}
}
