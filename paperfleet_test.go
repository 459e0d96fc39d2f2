package fairmove

// Paper-fleet identity: the 20,130-taxi city the headline serving workload
// runs on, pinned in-tree. One day of decisions under the golden CMA2C
// checkpoint at two demand seeds, digested in the dispatch service's line
// format, and one day of the GT engine's trace at shards 1 and 2, which must
// agree. A change that claims to keep paper-scale trajectories bit-identical
// must leave testdata/paperfleet.json as it is; a deliberate trajectory
// change regenerates it with -update.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"os"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

var updatePaperFleet = flag.Bool("update", false, "rewrite testdata/paperfleet.json from the current code")

const paperFleetPath = "testdata/paperfleet.json"

// paperFleetDigest is one pinned run: how many slots it stepped, how many
// lines it digested (decisions or trace events) and their hex SHA-256.
type paperFleetDigest struct {
	Seed   int64  `json:"seed"`
	Slots  int    `json:"slots"`
	Lines  int    `json:"lines"`
	Digest string `json:"digest"`
}

// paperFleetPins is testdata/paperfleet.json.
type paperFleetPins struct {
	Fleet     int                `json:"fleet"`
	Policy    string             `json:"policy"`
	Decisions []paperFleetDigest `json:"cma2c_decisions"`
	GTTrace   paperFleetDigest   `json:"gt_trace"`
}

const (
	paperFleetSize   = 20130
	paperFleetPolicy = "testdata/checkpoints/cma2c.fmck"
	// paperFleetSlots is one day of 10-minute slots.
	paperFleetSlots = 144
)

// paperFleetSystem builds the paper city (scenario seed 42, the golden
// checkpoint's) with the given shard count and a one-day horizon.
func paperFleetSystem(t *testing.T, shards int) *System {
	t.Helper()
	cfg := DefaultConfig(42)
	cfg.Fleet = paperFleetSize
	cfg.Shards = shards
	cfg.Days = 1
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// paperFleetDecisions steps one day of the golden CMA2C policy at seed
// through policy.Runner, digesting each slot's decisions in the line format
// of serve.Server.DigestState (slot|taxi|region|action).
func paperFleetDecisions(t *testing.T, s *System, seed int64) paperFleetDigest {
	t.Helper()
	pol, err := s.PolicyFor(FairMove)
	if err != nil {
		t.Fatal(err)
	}
	r := policy.NewRunner(pol, s.EvalEnv(), seed)
	h := sha256.New()
	var ds []policy.Decision
	var line []byte
	got := paperFleetDigest{Seed: seed}
	for ; got.Slots < paperFleetSlots && !r.Done(); got.Slots++ {
		d := r.Decide()
		ds = d.AppendDecisions(ds[:0])
		r.Advance(d)
		for _, dec := range ds {
			line = appendDecisionLine(line[:0], dec)
			h.Write(line)
		}
		got.Lines += len(ds)
	}
	got.Digest = hex.EncodeToString(h.Sum(nil))
	return got
}

// appendDecisionLine appends the service's canonical decision line.
func appendDecisionLine(dst []byte, d policy.Decision) []byte {
	dst = strconv.AppendInt(dst, int64(d.Slot), 10)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(d.Taxi), 10)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(d.Region), 10)
	dst = append(dst, '|')
	dst = d.Action.Append(dst)
	return append(dst, '\n')
}

// traceHasher streams trace events into the digest trace.DigestEvents
// computes over the whole slice, without holding a day of events.
type traceHasher struct {
	h      hash.Hash
	events int
	err    error
}

func (th *traceHasher) record(ev trace.Event) {
	th.events++
	if err := trace.EncodeEvents(th.h, []trace.Event{ev}); err != nil && th.err == nil {
		th.err = err
	}
}

// paperFleetGTTrace steps one day of GT at seed on the given shard count
// and digests the engine's canonical event trace.
func paperFleetGTTrace(t *testing.T, shards int, seed int64) paperFleetDigest {
	t.Helper()
	s := paperFleetSystem(t, shards)
	th := &traceHasher{h: sha256.New()}
	s.SetRecorder(sim.Recorder(th.record))
	r := policy.NewRunner(policy.NewGroundTruth(), s.EvalEnv(), seed)
	got := paperFleetDigest{Seed: seed}
	for ; got.Slots < paperFleetSlots && !r.Done(); got.Slots++ {
		r.StepSlot()
	}
	if th.err != nil {
		t.Fatal(th.err)
	}
	got.Lines = th.events
	got.Digest = hex.EncodeToString(th.h.Sum(nil))
	return got
}

func TestPaperFleetIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-fleet day: about 10 s, run in the full tier")
	}
	got := paperFleetPins{Fleet: paperFleetSize, Policy: paperFleetPolicy}
	s := paperFleetSystem(t, 0)
	if err := s.LoadPolicy(paperFleetPolicy); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1042, 2042} {
		got.Decisions = append(got.Decisions, paperFleetDecisions(t, s, seed))
	}
	got.GTTrace = paperFleetGTTrace(t, 1, 1042)
	if k2 := paperFleetGTTrace(t, 2, 1042); k2 != got.GTTrace {
		t.Errorf("GT trace at shards=2 %+v differs from shards=1 %+v", k2, got.GTTrace)
	}
	if *updatePaperFleet {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paperFleetPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", paperFleetPath)
		return
	}
	data, err := os.ReadFile(paperFleetPath)
	if err != nil {
		t.Fatalf("%v (generate it with go test -run TestPaperFleetIdentity -update .)", err)
	}
	var want paperFleetPins
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paper-fleet identity moved:\n got %+v\nwant %+v", got, want)
	}
}
