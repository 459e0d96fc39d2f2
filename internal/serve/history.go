package serve

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/policy"
	"repro/internal/sim"
)

// slotRecord is one retained slot of the decision history, stored as
// columns, one row per vacant taxi in vacant order: 7 bytes a decision
// where a policy.Decision takes 40. An action outside the action space's
// codes is coded codeEscaped and kept whole in escaped, in row order, so
// every policy output expands back exactly.
type slotRecord struct {
	slot    int // stamped by commit
	taxi    []int32
	region  []int16
	code    []uint8 // actionCode
	escaped []sim.Action
}

// codeEscaped is the action code of an action kept in slotRecord.escaped.
const codeEscaped = math.MaxUint8

// checkRegions refuses a city with more regions than the history's int16
// region column can number.
func checkRegions(n int) error {
	if n > math.MaxInt16+1 {
		return fmt.Errorf("serve: %d regions, the decision history holds at most %d", n, math.MaxInt16+1)
	}
	return nil
}

// fill overwrites r's rows with d's decisions, keeping r's storage. The
// action map lookups get a loop of their own: interleaved with other work
// per row, fewer of them overlap and the publisher ran slower.
func (r *slotRecord) fill(d *policy.Decided) {
	n := len(d.Vacant)
	r.taxi = slices.Grow(r.taxi[:0], n)
	r.region = slices.Grow(r.region[:0], n)
	r.code = slices.Grow(r.code[:0], n)
	r.escaped = r.escaped[:0]
	for i, id := range d.Vacant {
		r.taxi = append(r.taxi, int32(id))
		r.region = append(r.region, int16(d.Regions[i]))
	}
	for _, id := range d.Vacant {
		a := d.Action(id)
		code := actionCode(a)
		if code == codeEscaped {
			r.escaped = append(r.escaped, a)
		}
		r.code = append(r.code, code)
	}
}

// expand returns the action a row's code stands for. An escaped row takes
// the head of escaped, the rest of which it returns for the next rows.
func expand(code uint8, escaped []sim.Action) (sim.Action, []sim.Action) {
	if code == codeEscaped {
		return escaped[0], escaped[1:]
	}
	return codeAction[code], escaped
}

// appendDecisions expands r's rows into dst, in row order.
func (r *slotRecord) appendDecisions(dst []policy.Decision) []policy.Decision {
	escaped := r.escaped
	for i, code := range r.code {
		var a sim.Action
		a, escaped = expand(code, escaped)
		dst = append(dst, policy.Decision{Slot: r.slot, Taxi: int(r.taxi[i]), Region: int(r.region[i]), Action: a})
	}
	return dst
}

// actionCode is a's code in the history: its action index when that index
// stands for exactly a, and codeEscaped for anything else (an unknown kind,
// an Arg outside its kind's range, a Stay with an Arg).
func actionCode(a sim.Action) uint8 {
	if i := actionIndex(a); i >= 0 && codeAction[i] == a {
		return uint8(i)
	}
	return codeEscaped
}

// codeAction[c] is the action code c stands for, sim.ActionFromIndex(c).
var codeAction = func() (t [sim.NumActions]sim.Action) {
	for i := range t {
		t[i] = sim.ActionFromIndex(i)
	}
	return t
}()

// actionIndex is sim.ActionIndex for the three action kinds and -1 for any
// other kind, which sim.ActionIndex refuses. It is the action_index GET
// /decisions reports.
func actionIndex(a sim.Action) int {
	switch a.Kind {
	case sim.Stay, sim.Move, sim.Charge:
		return sim.ActionIndex(a)
	}
	return -1
}
