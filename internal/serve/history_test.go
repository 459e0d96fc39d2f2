package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
)

// rewritePolicy wraps a policy and replaces the actions of some taxis, by
// taxi ID, with what rewrite answers for them (ok false keeps the wrapped
// policy's action; a zero Action with drop leaves the taxi out of the map,
// which means Stay).
type rewritePolicy struct {
	policy.Policy
	rewrite func(id int) (a sim.Action, drop, ok bool)
}

func (p rewritePolicy) Act(env sim.Environment, vacant []int) map[int]sim.Action {
	acts := p.Policy.Act(env, vacant)
	for _, id := range vacant {
		a, drop, ok := p.rewrite(id)
		switch {
		case !ok:
		case drop:
			delete(acts, id)
		default:
			acts[id] = a
		}
	}
	return acts
}

// oddActions answers actions the history cannot code for some taxis: an
// unknown kind, a Move past MaxNeighbors and a Stay with an Arg, and leaves
// one taxi in seven out of the action map.
func oddActions(id int) (sim.Action, bool, bool) {
	switch id % 7 {
	case 0:
		return sim.Action{Kind: 9, Arg: 3}, false, true
	case 1:
		return sim.Action{Kind: sim.Move, Arg: 12}, false, true
	case 2:
		return sim.Action{Kind: sim.Stay, Arg: 4}, false, true
	case 3:
		return sim.Action{}, true, true
	}
	return sim.Action{}, false, false
}

// batchRecords runs slots slots of p on the batch Runner and returns each
// slot's decision records.
func batchRecords(t *testing.T, p policy.Policy, opts sim.Options, seed int64, slots int) [][]policy.Decision {
	t.Helper()
	r := policy.NewRunner(p, sim.New(microCity(t, seed), opts, seed), seed)
	out := make([][]policy.Decision, slots)
	for i := range out {
		out[i] = append([]policy.Decision(nil), r.StepSlot()...)
	}
	return out
}

// TestRetainedDecisionsMatchBatch: every slot in a History=4 window answers
// exactly the batch Runner's records of that slot, field for field, escaped
// actions included, at one and two shards; evicted and unstepped slots
// answer ok == false.
func TestRetainedDecisionsMatchBatch(t *testing.T) {
	const seed, slots, history = 23, 12, 4
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := sim.DefaultOptions(1)
			opts.Shards = shards
			pol := rewritePolicy{policy.NewGroundTruth(), oddActions}
			want := batchRecords(t, pol, opts, seed, slots)

			srv, err := New(Config{Env: sim.New(microCity(t, seed), opts, seed), Policy: pol, Seed: seed, History: history})
			if err != nil {
				t.Fatal(err)
			}
			srv.Start()
			ctx := context.Background()
			escaped := 0
			for i := 0; i < slots; i++ {
				if _, _, ok := srv.Decisions(i); ok {
					t.Fatalf("slot %d answers before it is stepped", i)
				}
				if n, err := srv.StepSlots(ctx, 1); err != nil || n != 1 {
					t.Fatalf("slot %d: stepped %d, %v", i, n, err)
				}
				for s := 0; s <= i+1; s++ {
					got, slot, ok := srv.Decisions(s)
					if retained := s <= i && s > i-history; ok != retained || slot != s {
						t.Fatalf("after slot %d: Decisions(%d) answers slot %d ok=%v, want ok=%v", i, s, slot, ok, retained)
					}
					if !ok {
						continue
					}
					if len(got) != len(want[s]) {
						t.Fatalf("slot %d: %d decisions, batch has %d", s, len(got), len(want[s]))
					}
					for j := range got {
						if got[j] != want[s][j] {
							t.Fatalf("slot %d decision %d: %+v, batch %+v", s, j, got[j], want[s][j])
						}
						if actionCode(got[j].Action) == codeEscaped {
							escaped++
						}
					}
				}
			}
			if escaped == 0 {
				t.Fatal("no escaped action was retained")
			}
			if err := srv.Drain(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHTTPDecisionsEscapedActions: a policy answering actions outside the
// action space, an unknown kind and an out-of-range Move, still gets its
// decisions back over GET /decisions (index -1, the actions rendered as
// the digest renders them), and the served digest equals the batch one.
func TestHTTPDecisionsEscapedActions(t *testing.T) {
	const seed, slots = 41, 2
	pol := rewritePolicy{policy.NewGroundTruth(), func(id int) (sim.Action, bool, bool) {
		if id%2 == 0 {
			return sim.Action{Kind: 9, Arg: 3}, false, true
		}
		return sim.Action{Kind: sim.Move, Arg: 12}, false, true
	}}
	srv, err := New(Config{Env: sim.New(microCity(t, seed), sim.DefaultOptions(1), seed), Policy: pol, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() { srv.Drain(context.Background()) })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	if resp, body := postJSON(t, ts.URL+"/step", fmt.Sprintf(`{"slots":%d}`, slots)); resp.StatusCode != http.StatusOK {
		t.Fatalf("/step: %s: %s", resp.Status, body)
	}

	resp, err := http.Get(ts.URL + "/decisions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/decisions: %s", resp.Status)
	}
	var latest decisionsResponse
	if err := json.NewDecoder(resp.Body).Decode(&latest); err != nil {
		t.Fatal(err)
	}
	if latest.Slot != slots-1 || len(latest.Decisions) == 0 {
		t.Fatalf("/decisions answered slot %d with %d decisions", latest.Slot, len(latest.Decisions))
	}
	for _, d := range latest.Decisions {
		want := "move(12)"
		if d.Taxi%2 == 0 {
			want = "Action(9,3)"
		}
		if d.Action != want || d.Index != -1 {
			t.Fatalf("taxi %d: action %q index %d, want %q index -1", d.Taxi, d.Action, d.Index, want)
		}
	}

	var all []policy.Decision
	for _, ds := range batchRecords(t, pol, sim.DefaultOptions(1), seed, slots) {
		all = append(all, ds...)
	}
	if _, _, got := srv.DigestState(); got != DigestDecisions(all) {
		t.Fatalf("served digest %s, batch %s", got, DigestDecisions(all))
	}
}

// TestCheckRegions: the history's int16 region column numbers 32,768
// regions; a city with one more is refused.
func TestCheckRegions(t *testing.T) {
	if err := checkRegions(math.MaxInt16 + 1); err != nil {
		t.Errorf("32768 regions refused: %v", err)
	}
	if err := checkRegions(math.MaxInt16 + 2); err == nil {
		t.Error("32769 regions accepted")
	}
}
