package scenario

// Golden-trace regression harness.
//
// Every fixture spec under testdata/scenarios/<name>.json is run on the
// micro city (synth.MicroConfig(42), one day, Stay policy, seed 42) with
// the structured event recorder attached, and the SHA-256 digest of the
// canonical event log is compared against testdata/golden/<name>.digest.
// Any behavioral drift in the simulator or the scenario engine — one
// reordered event, one changed minute — changes the digest.
//
// To regenerate after an INTENTIONAL behavior change:
//
//	go test ./internal/scenario -run TestGoldenTraces -update
//
// then commit the refreshed digests together with the change that explains
// them. Never update goldens to quiet a failure you cannot explain.

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden trace digests")

// goldenFixtures lists the committed scenario specs, in run order.
var goldenFixtures = []string{"baseline", "station-outage", "demand-surge", "weather", "airport-surge"}

// goldenSeed fixes both the city and the run; the fixture digests are only
// meaningful against exactly this world.
const goldenSeed = 42

// goldenDigest replays one fixture and digests its event log. Every call
// builds a fresh city and environment so concurrent calls share nothing.
func goldenDigest(spec *Spec) (string, error) {
	cfg := synth.MicroConfig(goldenSeed)
	city, err := synth.Build(cfg)
	if err != nil {
		return "", err
	}
	// Start everyone near the forced-charge threshold so the charging
	// pipeline — stations, queues, outages, derates — is exercised from the
	// first slot.
	for i := range city.Fleet {
		city.Fleet[i].InitialSoC = 0.3
	}
	env := sim.New(city, sim.DefaultOptions(1), goldenSeed)
	var events []trace.Event
	env.SetRecorder(func(ev trace.Event) { events = append(events, ev) })
	if _, err := Attach(env, spec); err != nil {
		return "", err
	}
	env.Reset(goldenSeed)
	for !env.Done() {
		env.Step(nil) // Stay policy: forced charging still moves taxis
	}
	return trace.DigestEvents(events), nil
}

func loadFixture(t *testing.T, name string) *Spec {
	t.Helper()
	spec, err := Load(filepath.Join("testdata", "scenarios", name+".json"))
	if err != nil {
		t.Fatalf("fixture %s: %v", name, err)
	}
	return spec
}

func TestGoldenTraces(t *testing.T) {
	for _, name := range goldenFixtures {
		t.Run(name, func(t *testing.T) {
			spec := loadFixture(t, name)
			got, err := goldenDigest(spec)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", name+".digest")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if got != strings.TrimSpace(string(want)) {
				t.Fatalf("trace digest drifted for %s:\n got %s\nwant %s\nIf the change is intentional, regenerate with -update and commit.",
					name, got, strings.TrimSpace(string(want)))
			}
		})
	}
}

// The committed fixtures must be in canonical form: loading and re-encoding
// one reproduces its bytes exactly, so hand edits cannot smuggle in
// non-canonical orderings that would mask composition bugs.
func TestGoldenFixturesCanonical(t *testing.T) {
	for _, name := range goldenFixtures {
		path := filepath.Join("testdata", "scenarios", name+".json")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := Parse(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		enc, err := Encode(spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(enc) != string(raw) {
			t.Fatalf("%s is not canonical; want:\n%s", path, enc)
		}
	}
}

// The baseline fixture must be indistinguishable from running with no
// scenario at all: attaching an empty engine cannot perturb the RNG
// streams or the event log.
func TestGoldenBaselineMatchesNoScenario(t *testing.T) {
	withScenario, err := goldenDigest(loadFixture(t, "baseline"))
	if err != nil {
		t.Fatal(err)
	}
	city, err := synth.Build(synth.MicroConfig(goldenSeed))
	if err != nil {
		t.Fatal(err)
	}
	for i := range city.Fleet {
		city.Fleet[i].InitialSoC = 0.3
	}
	env := sim.New(city, sim.DefaultOptions(1), goldenSeed)
	var events []trace.Event
	env.SetRecorder(func(ev trace.Event) { events = append(events, ev) })
	env.Reset(goldenSeed)
	for !env.Done() {
		env.Step(nil)
	}
	if clean := trace.DigestEvents(events); clean != withScenario {
		t.Fatalf("baseline scenario diverges from a clean run:\nclean    %s\nbaseline %s", clean, withScenario)
	}
}

// Scenario replay must be worker-invariant: digesting the fixtures through
// the parallel runtime with four workers produces exactly the serial
// digests. Each replay owns its city and env, so this pins the absence of
// shared mutable state in the engine (it is called concurrently here).
func TestGoldenTracesWorkerInvariant(t *testing.T) {
	specs := make([]*Spec, len(goldenFixtures))
	for i, name := range goldenFixtures {
		specs[i] = loadFixture(t, name)
	}
	serial := make([]string, len(specs))
	for i, spec := range specs {
		d, err := goldenDigest(spec)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = d
	}
	for _, workers := range []int{1, 4} {
		got, err := parallel.Map(workers, len(specs),
			func(i int) (string, error) {
				// One engine instance shared across all replicas of the same
				// spec would also be legal (Hooks are pure); building per
				// replay keeps the test symmetric with goldenDigest.
				return goldenDigest(specs[i])
			})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: fixture %s digest %s, serial %s",
					workers, goldenFixtures[i], got[i], serial[i])
			}
		}
	}
}
