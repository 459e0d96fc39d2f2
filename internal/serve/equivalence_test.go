package serve

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
)

// The serve-equivalence battery pins the PR's headline contract: a served
// run — engine stepped by an ingested event feed over HTTP — produces the
// byte-identical trace digest and decision digest as the batch engine on the
// same (policy, city, seed, scenario). One and two shards, clean and
// scenario-conditioned runs, direct enqueue and full HTTP transport are all
// covered.

func microCity(t *testing.T, seed int64) *synth.City {
	t.Helper()
	city, err := synth.Build(synth.MicroConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return city
}

// batchRun drives the batch path (policy.Runner, exactly what
// policy.Evaluate wraps) and returns the canonical digests.
func batchRun(t *testing.T, city *synth.City, opts sim.Options, spec *scenario.Spec, seed int64) (traceDigest, decDigest string, slots int) {
	t.Helper()
	env := sim.New(city, opts, seed)
	if spec != nil {
		if _, err := scenario.Attach(env, spec); err != nil {
			t.Fatal(err)
		}
	}
	var evs []trace.Event
	env.SetRecorder(func(ev trace.Event) { evs = append(evs, ev) })
	r := policy.NewRunner(policy.NewGroundTruth(), env, seed)
	var all []policy.Decision
	for !r.Done() {
		all = append(all, append([]policy.Decision(nil), r.StepSlot()...)...)
	}
	return trace.DigestEvents(evs), DigestDecisions(all), r.Slots()
}

// serveRun drives the same run through the service: feed events in, let the
// watermark close slots, drain, and read the digests back.
func serveRun(t *testing.T, city *synth.City, opts sim.Options, spec *scenario.Spec, seed int64, viaHTTP bool) (traceDigest, decDigest string, slots int) {
	t.Helper()
	env := sim.New(city, opts, seed)
	if spec != nil {
		if _, err := scenario.Attach(env, spec); err != nil {
			t.Fatal(err)
		}
	}
	var evs []trace.Event
	env.SetRecorder(func(ev trace.Event) { evs = append(evs, ev) })
	srv, err := New(Config{Env: env, Policy: policy.NewGroundTruth(), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	feed := RecordFeed(city, opts, seed, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if viaHTTP {
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		client := &Client{URL: ts.URL, BatchSize: 512}
		if _, err := client.Stream(ctx, feed, 0); err != nil {
			t.Fatal(err)
		}
	} else {
		for len(feed) > 0 {
			n := 512
			if n > len(feed) {
				n = len(feed)
			}
			if err := srv.Enqueue(feed[:n]); err != nil {
				if errors.Is(err, ErrBacklogged) {
					time.Sleep(time.Millisecond)
					continue
				}
				t.Fatal(err)
			}
			feed = feed[n:]
		}
	}
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	slots, _, decDigest = srv.DigestState()
	// Drain returned, so the driver goroutine has exited: evs is settled.
	return trace.DigestEvents(evs), decDigest, slots
}

func assertEquivalent(t *testing.T, shards int, spec *scenario.Spec, viaHTTP bool) {
	t.Helper()
	const seed = 77
	city := microCity(t, seed)
	opts := sim.DefaultOptions(1)
	opts.Shards = shards
	bt, bd, bslots := batchRun(t, city, opts, spec, seed)
	st, sd, sslots := serveRun(t, city, opts, spec, seed, viaHTTP)
	if sslots != bslots {
		t.Fatalf("served %d slots, batch ran %d — the feed failed to drive the full horizon", sslots, bslots)
	}
	if st != bt {
		t.Errorf("trace digest diverged:\n  batch %s\n  serve %s", bt, st)
	}
	if sd != bd {
		t.Errorf("decision digest diverged:\n  batch %s\n  serve %s", bd, sd)
	}
}

func TestServeEquivalenceSingleShard(t *testing.T) {
	assertEquivalent(t, 1, nil, false)
}

func TestServeEquivalenceHTTP(t *testing.T) {
	assertEquivalent(t, 1, nil, true)
}

func TestServeEquivalenceSharded(t *testing.T) {
	assertEquivalent(t, 2, nil, false)
}

func TestServeEquivalenceScenario(t *testing.T) {
	spec, err := scenario.NewBuilder("serve-outage").
		StationOutage(0, 0, 12*60).
		DemandSurge(-1, 7*60, 10*60, 2).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, 1, spec, false)
}

// TestServeStepOnDemand pins the /step path: stepping without any feed
// advances exactly the requested slots and decisions stay queryable for the
// retained window.
func TestServeStepOnDemand(t *testing.T) {
	const seed = 9
	city := microCity(t, seed)
	env := sim.New(city, sim.DefaultOptions(1), seed)
	srv, err := New(Config{Env: env, Policy: policy.NewGroundTruth(), Seed: seed, History: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ctx := context.Background()
	stepped, err := srv.StepSlots(ctx, 6)
	if err != nil || stepped != 6 {
		t.Fatalf("StepSlots = %d, %v; want 6, nil", stepped, err)
	}
	if got := srv.Slot(); got != 6 {
		t.Fatalf("Slot = %d, want 6", got)
	}
	if _, slot, ok := srv.Decisions(-1); !ok || slot != 5 {
		t.Fatalf("latest decisions: slot %d ok=%v, want slot 5", slot, ok)
	}
	// History=4 retains slots 2..5; slot 0 must be evicted.
	if _, _, ok := srv.Decisions(0); ok {
		t.Fatal("slot 0 should have been evicted from a History=4 window")
	}
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.StepSlots(ctx, 1); !errors.Is(err, ErrDraining) {
		t.Fatalf("StepSlots after drain = %v, want ErrDraining", err)
	}
}
