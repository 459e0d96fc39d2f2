// Package sim implements the fleet environment of Section III: a
// slot-stepped simulator of a large electric taxi fleet with passenger
// matching, multi-slot trips, battery depletion, station queueing, and
// TOU-priced charging. Displacement policies interact with it through the
// (VacantTaxis, Observe, Step) cycle; the accounting it produces feeds every
// metric and figure in the evaluation.
package sim

import (
	"fmt"
	"strconv"
)

// ActionKind is the paper's three displacement action types.
type ActionKind int

// Action kinds (Section III-C, Action space).
const (
	// Stay keeps the taxi cruising in its current region.
	Stay ActionKind = iota
	// Move displaces the taxi to the Arg-th adjacent region.
	Move
	// Charge sends the taxi to its Arg-th nearest charging station.
	Charge
)

// Action is one displacement decision for one vacant taxi.
type Action struct {
	Kind ActionKind
	Arg  int // neighbor index for Move, station rank (0-based) for Charge
}

// String implements fmt.Stringer.
func (a Action) String() string { return string(a.Append(nil)) }

// Append appends the action's stable rendering — "stay", "move(2)",
// "charge(0)", or "Action(kind,arg)" for an unknown kind — to dst and
// returns the extended slice. The served decision log renders one action
// per decision, so this avoids fmt and allocates only to grow dst.
func (a Action) Append(dst []byte) []byte {
	switch a.Kind {
	case Stay:
		return append(dst, "stay"...)
	case Move:
		dst = append(dst, "move("...)
	case Charge:
		dst = append(dst, "charge("...)
	default:
		dst = append(dst, "Action("...)
		dst = strconv.AppendInt(dst, int64(a.Kind), 10)
		dst = append(dst, ',')
	}
	dst = strconv.AppendInt(dst, int64(a.Arg), 10)
	return append(dst, ')')
}

// Fixed action-space geometry. Every region has at most MaxNeighbors
// adjacent regions (the jittered-lattice partition guarantees ≤ 8 and the
// paper's census partition is similar); each taxi considers its KStations
// nearest charging stations.
const (
	MaxNeighbors = 8
	KStations    = 5
)

// NumActions is the fixed width of the discrete action space: stay, up to
// MaxNeighbors moves, and KStations charge targets.
const NumActions = 1 + MaxNeighbors + KStations

// ActionIndex flattens an Action into [0, NumActions).
func ActionIndex(a Action) int {
	switch a.Kind {
	case Stay:
		return 0
	case Move:
		return 1 + a.Arg
	case Charge:
		return 1 + MaxNeighbors + a.Arg
	default:
		panic(fmt.Sprintf("sim: invalid action %v", a))
	}
}

// ActionFromIndex inverts ActionIndex.
func ActionFromIndex(idx int) Action {
	switch {
	case idx == 0:
		return Action{Kind: Stay}
	case idx >= 1 && idx < 1+MaxNeighbors:
		return Action{Kind: Move, Arg: idx - 1}
	case idx >= 1+MaxNeighbors && idx < NumActions:
		return Action{Kind: Charge, Arg: idx - 1 - MaxNeighbors}
	default:
		panic(fmt.Sprintf("sim: action index %d out of range", idx))
	}
}
