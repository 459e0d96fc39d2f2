package invariant

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
)

// testEnv builds the micro world the checker tests run against.
func testEnv(t *testing.T) sim.Environment {
	t.Helper()
	city, err := synth.Build(synth.MicroConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := range city.Fleet {
		city.Fleet[i].InitialSoC = 0.3
	}
	return sim.New(city, sim.DefaultOptions(1), 42)
}

// forged runs a hand-written event stream through a fresh checker's shadow
// replay (no sim steps, so only the station invariants can fire) and
// returns the violation names.
func forged(t *testing.T, evs []trace.Event) []string {
	t.Helper()
	env := testEnv(t)
	env.Reset(42)
	ck := New(env, Options{})
	for _, ev := range evs {
		ck.Observe(ev)
	}
	var names []string
	for _, v := range ck.Finish() {
		names = append(names, v.Name)
	}
	return names
}

func wantViolation(t *testing.T, got []string, want string) {
	t.Helper()
	for _, n := range got {
		if n == want {
			return
		}
	}
	t.Fatalf("violations %v do not include %q", got, want)
}

// ev is shorthand for a station-scoped event.
func ev(kind trace.EventKind, min, taxi, station int) trace.Event {
	return trace.Event{TimeMin: min, Taxi: taxi, Region: -1, Kind: kind, A: station, B: -1}
}

func TestShadowDetectsUnplugWithoutPlug(t *testing.T) {
	wantViolation(t, forged(t, []trace.Event{ev(trace.EvUnplug, 10, 3, 0)}), "unplug-not-plugged")
}

func TestShadowDetectsFIFOViolation(t *testing.T) {
	wantViolation(t, forged(t, []trace.Event{
		ev(trace.EvQueue, 5, 1, 0),
		ev(trace.EvQueue, 6, 2, 0),
		ev(trace.EvPlug, 10, 2, 0), // taxi 1 joined earlier and still waits
	}), "queue-fifo")
}

func TestShadowDetectsQueueJump(t *testing.T) {
	wantViolation(t, forged(t, []trace.Event{
		ev(trace.EvQueue, 5, 1, 0),
		ev(trace.EvPlug, 10, 2, 0), // walk-up past a waiting taxi
	}), "queue-jump")
}

func TestShadowDetectsPlugAtClosedStation(t *testing.T) {
	closed := ev(trace.EvOutage, 5, -1, 0)
	closed.B = 1
	wantViolation(t, forged(t, []trace.Event{
		closed,
		ev(trace.EvPlug, 6, 1, 0),
	}), "plug-closed")
}

func TestShadowDetectsDoublePlug(t *testing.T) {
	wantViolation(t, forged(t, []trace.Event{
		ev(trace.EvPlug, 5, 1, 0),
		ev(trace.EvPlug, 6, 1, 1),
	}), "double-plug")
}

func TestShadowDetectsOverCapacity(t *testing.T) {
	env := testEnv(t)
	points := env.City().Stations.Station(0).Points
	var evs []trace.Event
	for i := 0; i <= points; i++ {
		evs = append(evs, ev(trace.EvPlug, 5+i, 100+i, 0))
	}
	wantViolation(t, forged(t, evs), "over-capacity")
}

// The replay accepts only the simulator's canonical order: a station event
// stamped earlier than one already seen is itself a violation.
func TestShadowDetectsOutOfOrderStream(t *testing.T) {
	wantViolation(t, forged(t, []trace.Event{
		ev(trace.EvPlug, 10, 1, 0),
		ev(trace.EvPlug, 5, 2, 1),
	}), "event-order")
}

func TestShadowAcceptsLegalSequence(t *testing.T) {
	unplug := ev(trace.EvUnplug, 9, 1, 0)
	unplug.V = 12.5
	got := forged(t, []trace.Event{
		ev(trace.EvPlug, 5, 1, 0),  // walk-up into free capacity
		ev(trace.EvQueue, 6, 2, 0), // second taxi waits
		unplug,                     // session ends
		ev(trace.EvPlug, 9, 2, 0),  // FIFO promotion, same minute as unplug
	})
	if len(got) != 0 {
		t.Fatalf("legal sequence flagged: %v", got)
	}
}

// A clean full run on the reference engine must pass every invariant, and
// attaching the checker must not perturb the trace: the checked digest
// equals an unchecked run's digest byte for byte.
func TestCheckerIsTransparentOnCleanRun(t *testing.T) {
	digest, vs, err := CheckedRun(testEnv(t), nil, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("clean run violated invariants: %v", vs)
	}
	env := testEnv(t)
	var events []trace.Event
	env.SetRecorder(func(e trace.Event) { events = append(events, e) })
	env.Reset(42)
	for !env.Done() {
		env.Step(nil)
	}
	if plain := trace.DigestEvents(events); plain != digest {
		t.Fatalf("checker perturbed the run: checked %s, plain %s", digest, plain)
	}
}

// The per-step surface must catch a corrupted ledger: poison the initial
// energy snapshot and the conservation check has to fire.
func TestEnergyCheckDetectsCorruptLedger(t *testing.T) {
	env := testEnv(t)
	env.Reset(42)
	ck := New(env, Options{Energy: true})
	ck.Begin()
	ck.initialKWh[0] += 5 // 5 kWh appears from nowhere
	env.Step(nil)
	ck.AfterStep()
	var names []string
	for _, v := range ck.Violations() {
		names = append(names, v.Name)
	}
	wantViolation(t, names, "energy-conservation")
}

func TestViolationString(t *testing.T) {
	v := Violation{Name: "soc-range", Minute: 120, Detail: "taxi 3 SoC 1.5"}
	if s := v.String(); !strings.Contains(s, "soc-range") || !strings.Contains(s, "@120") {
		t.Fatalf("unexpected String: %q", s)
	}
	v.Minute = -1
	if s := v.String(); strings.Contains(s, "@") {
		t.Fatalf("minute-less violation mentions a minute: %q", s)
	}
}

// The violation cap must hold even for a pathological stream.
func TestViolationCap(t *testing.T) {
	env := testEnv(t)
	env.Reset(42)
	ck := New(env, Options{MaxViolations: 5})
	for i := 0; i < 100; i++ {
		ck.Observe(ev(trace.EvUnplug, 10+i, i, 0))
	}
	if got := len(ck.Finish()); got != 5 {
		t.Fatalf("collected %d violations, want the cap of 5", got)
	}
}
