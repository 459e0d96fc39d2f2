package sim

import (
	"reflect"
	"testing"

	"repro/internal/synth"
)

// Regression: Results must return a snapshot, not a pointer into the
// environment — evaluating two policies on one shared env used to make the
// first result silently mirror the second.
func TestResultsSnapshotSurvivesReset(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(60))
	if err != nil {
		t.Fatal(err)
	}
	e := New(city, DefaultOptions(1), 60)
	runStay(e)
	first := e.Results()
	served1 := first.ServedRequests
	trips1 := len(first.TripStats)

	// A second, different run on the same env must not mutate `first`.
	e.Reset(61)
	for i := 0; i < 30 && !e.Done(); i++ {
		e.Step(nil)
	}
	if first.ServedRequests != served1 || len(first.TripStats) != trips1 {
		t.Fatalf("earlier snapshot mutated by later run: served %d->%d trips %d->%d",
			served1, first.ServedRequests, trips1, len(first.TripStats))
	}
}

// Regression: the warmup period must not leak into the accounting — a
// warmed-up one-day window reports at most one day of on-duty time.
func TestWarmupExcludedFromAccounting(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(62))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(1)
	opts.WarmupDays = 1
	e := New(city, opts, 62)
	runStay(e)
	res := e.Results()
	if res.Slots != 144 {
		t.Fatalf("post-warmup slots = %d, want 144", res.Slots)
	}
	for i, a := range res.Accounts {
		if a.OnDutyMin() > 24*60+1 {
			t.Fatalf("taxi %d accounted %v min over a 1-day window", i, a.OnDutyMin())
		}
	}
}

// Regression: the stat chunk lists keep their backing arrays across the
// warm-up boundary and Reset, but no header past len may still reference an
// arena block — a stale header pins a whole discarded day of trip and
// charge records (16 MiB of live heap at full scale).
func TestChunkHeadersReleasedOnAccountingReset(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(1)
	opts.WarmupDays = 1
	e := New(city, opts, 64)
	for slot := 0; slot < 24*60/e.SlotLen(); slot++ {
		e.Step(nil)
	}
	assertNoStaleChunks(t, e, "the warm-up boundary")
	runStay(e)
	e.Reset(64)
	assertNoStaleChunks(t, e, "Reset")
}

func assertNoStaleChunks(t *testing.T, e *Core, when string) {
	t.Helper()
	if len(e.tripChunks) != 0 || len(e.chargeChunks) != 0 {
		t.Fatalf("after %s: %d trip and %d charge chunks kept, want none", when, len(e.tripChunks), len(e.chargeChunks))
	}
	if cap(e.tripChunks) == 0 || cap(e.chargeChunks) == 0 {
		t.Fatalf("after %s: no trip or charge chunk was ever cut; the check is vacuous", when)
	}
	for i, ch := range e.tripChunks[:cap(e.tripChunks)] {
		if ch != nil {
			t.Fatalf("after %s: trip chunk header %d still references an arena", when, i)
		}
	}
	for i, ch := range e.chargeChunks[:cap(e.chargeChunks)] {
		if ch != nil {
			t.Fatalf("after %s: charge chunk header %d still references an arena", when, i)
		}
	}
}

// Relocating taxis must be unmatchable until arrival but matchable at the
// destination afterwards; their seek time keeps accruing throughout.
func TestRelocatingLifecycle(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(63))
	if err != nil {
		t.Fatal(err)
	}
	e := New(city, DefaultOptions(1), 63)
	id := e.VacantTaxis()[0]
	from := e.TaxiRegion(id)
	nbs := city.Partition.Region(from).Neighbors
	e.Step(map[int]Action{id: {Kind: Move, Arg: 0}})
	// After one slot, the taxi is either cruising at the destination or
	// serving a trip it caught there.
	switch e.TaxiState(id) {
	case Cruising:
		if e.TaxiRegion(id) != nbs[0] {
			t.Fatalf("cruising in region %d, want destination %d", e.TaxiRegion(id), nbs[0])
		}
	case Serving, Relocating:
		// Acceptable: matched mid-slot or still en route on a slow hop.
	default:
		t.Fatalf("unexpected state %v after move", e.TaxiState(id))
	}
}

// Pending requests must persist across slots until patience expires, and
// the accounting must cover every generated request exactly once.
func TestPatienceConservation(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(1)
	e := New(city, opts, 64)
	runStay(e)
	res := e.Results()
	// Conservation: served + unserved = all generated (pending flushed at
	// the horizon). Generated count is recovered by re-running the demand
	// stream through a second env with identical seed and summing.
	e2 := New(city, opts, 64)
	runStay(e2)
	res2 := e2.Results()
	if res.ServedRequests+res.UnservedRequests != res2.ServedRequests+res2.UnservedRequests {
		t.Fatalf("request conservation differs across identical runs: %d vs %d",
			res.ServedRequests+res.UnservedRequests, res2.ServedRequests+res2.UnservedRequests)
	}
	if res.ServedRequests == 0 || res.UnservedRequests == 0 {
		t.Fatalf("degenerate split served=%d unserved=%d", res.ServedRequests, res.UnservedRequests)
	}
}

// Regression: crawl energy drains slot by slot, so a long-vacant taxi's SoC
// must fall steadily rather than in a lump at match time.
func TestCrawlEnergyDrainsPerSlot(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(66))
	if err != nil {
		t.Fatal(err)
	}
	e := New(city, DefaultOptions(1), 66)
	id := e.VacantTaxis()[0]
	prev := e.TaxiSoC(id)
	drops := 0
	for i := 0; i < 12 && !e.Done(); i++ {
		e.Step(nil)
		if e.TaxiState(id) != Cruising {
			break
		}
		cur := e.TaxiSoC(id)
		if cur < prev {
			drops++
		}
		prev = cur
	}
	if drops == 0 {
		t.Fatal("cruising taxi's SoC never dropped across slots")
	}
}

// The charge-target jitter must never strand a taxi in an unreachable
// charging session (target above what the charger can deliver).
func TestChargeSessionsAlwaysTerminate(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(67))
	if err != nil {
		t.Fatal(err)
	}
	for i := range city.Fleet {
		city.Fleet[i].InitialSoC = 0.22
	}
	e := New(city, DefaultOptions(2), 67)
	runStay(e)
	// Any taxi still plugged at the horizon is fine; what must not happen
	// is a session older than ~4 hours (the longest possible full charge).
	for i := range e.taxis {
		if e.taxis[i].state == ChargingState {
			if age := e.Now() - e.taxis[i].plugMin; age > 4*60 {
				t.Fatalf("taxi %d charging for %d min — unreachable target", i, age)
			}
		}
	}
}

// The core keeps no copy of the per-taxi accounts: Results reads them from
// the taxis, before finalize and after it. Once the run is done they are
// final — reading the environment does not move them — and each Results
// call returns its own copy, so mutating one snapshot leaves a later one
// as it was.
func TestResultsAccountsAcrossFinalize(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(63))
	if err != nil {
		t.Fatal(err)
	}
	e := New(city, DefaultOptions(1), 63)
	e.Reset(63)
	for i := 0; i < 20; i++ {
		e.Step(nil)
	}
	mid := e.Results()
	if len(mid.Accounts) != len(city.Fleet) {
		t.Fatalf("%d accounts before finalize, want one per taxi (%d)", len(mid.Accounts), len(city.Fleet))
	}
	var onDuty float64
	for _, a := range mid.Accounts {
		onDuty += a.OnDutyMin()
	}
	if onDuty == 0 {
		t.Fatal("no on-duty time accounted after 20 slots")
	}
	runStay(e)
	final := e.Results()
	for _, id := range e.VacantTaxis() {
		e.Observe(id)
	}
	again := e.Results()
	if !reflect.DeepEqual(final.Accounts, again.Accounts) {
		t.Fatal("accounts moved after the run was done")
	}
	again.Accounts[0].RevenueCNY += 1e6
	again.Accounts = again.Accounts[:1]
	if later := e.Results(); !reflect.DeepEqual(later.Accounts, final.Accounts) {
		t.Fatal("mutating a Results snapshot changed a later one")
	}
}
