package policy

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/nn"
	"repro/internal/sim"
)

// rowStride is the float32 values one stored transition occupies in the
// arena: its observation row, then its next-observation row.
const rowStride = 2 * sim.FeatureSize

// TransitionStore holds semi-MDP transitions: the demonstration stores and
// per-episode rollouts of CMA2C and TBA, and DQN's replay ring. All rows
// live in one float32 arena, the observation row and then the next row of
// each transition, FeatureSize values per row; a terminal transition's next
// row is stored as zeros. The scalars (masks, action, reward, elapsed,
// terminal) sit beside the arena. Learners read rows only through the
// gathers (GatherObs, GatherNext), so this type alone knows the layout.
//
// The zero value is an empty, unbounded store. A ring (NewTransitionRing)
// overwrites its oldest transition once full.
type TransitionStore struct {
	rows []float32
	scal []storedScalars
	// limit is a ring's capacity (0: unbounded) and next the index its next
	// Add overwrites once full.
	limit, next int
}

// storedScalars is a stored transition minus its two rows.
type storedScalars struct {
	mask, nextMask [sim.NumActions]bool
	terminal       bool
	action         int
	reward         float64
	elapsed        int
}

// NewTransitionRing returns an empty store that holds at most limit
// transitions: once full, each Add overwrites the oldest.
func NewTransitionRing(limit int) TransitionStore { return TransitionStore{limit: limit} }

// Len returns the number of stored transitions.
func (s *TransitionStore) Len() int { return len(s.scal) }

// Add copies tr into the store: appended, or in a full ring written over
// the oldest transition. A terminal transition's next row is stored as
// zeros, whatever tr.NextObs holds.
func (s *TransitionStore) Add(tr *Transition) {
	i := len(s.scal)
	if s.limit > 0 && i == s.limit {
		i = s.next
		s.next = (s.next + 1) % s.limit
	} else {
		s.rows = append(s.rows, make([]float32, rowStride)...)
		s.scal = append(s.scal, storedScalars{})
	}
	s.scal[i] = storedScalars{
		mask: tr.Mask, nextMask: tr.NextMask, terminal: tr.Terminal,
		action: tr.Action, reward: tr.Reward, elapsed: tr.Elapsed,
	}
	row := s.rows[i*rowStride : (i+1)*rowStride]
	copy(row, tr.Obs)
	next := row[sim.FeatureSize:]
	if tr.Terminal {
		clear(next)
	} else {
		copy(next, tr.NextObs)
	}
}

// Extend appends every transition of o, in order. Both stores must be
// unbounded.
func (s *TransitionStore) Extend(o *TransitionStore) {
	s.rows = append(s.rows, o.rows...)
	s.scal = append(s.scal, o.scal...)
}

// At returns transition i. Its Obs and NextObs borrow the store's rows
// (NextObs is the zero row of a terminal transition) and stay valid until
// the store next changes.
func (s *TransitionStore) At(i int) Transition {
	sc := &s.scal[i]
	row := s.rows[i*rowStride : (i+1)*rowStride : (i+1)*rowStride]
	return Transition{
		Obs: row[:sim.FeatureSize], Mask: sc.mask, Action: sc.action, Reward: sc.reward,
		NextObs: row[sim.FeatureSize:], NextMask: sc.nextMask, Elapsed: sc.elapsed, Terminal: sc.terminal,
	}
}

// GatherObs writes the observation rows of transitions idxs into the rows
// of dst, reshaped to len(idxs)×FeatureSize (nil allocates), and returns it.
func (s *TransitionStore) GatherObs(dst *nn.Mat, idxs []int) *nn.Mat { return s.gather(dst, idxs, 0) }

// GatherNext is GatherObs for the next-observation rows: zeros for a
// terminal transition.
func (s *TransitionStore) GatherNext(dst *nn.Mat, idxs []int) *nn.Mat {
	return s.gather(dst, idxs, sim.FeatureSize)
}

func (s *TransitionStore) gather(dst *nn.Mat, idxs []int, off int) *nn.Mat {
	dst = nn.EnsureMat(dst, len(idxs), sim.FeatureSize)
	for b, i := range idxs {
		lo := i*rowStride + off
		copy(dst.Row(b), s.rows[lo:lo+sim.FeatureSize])
	}
	return dst
}

// EncodeTransitions appends a transition store (replay memory or
// demonstration store) to the payload: the count, every row as one float32
// block (TransitionStore's arena), then each transition's scalars.
func EncodeTransitions(e *checkpoint.Encoder, s *TransitionStore) {
	e.U32(uint32(s.Len()))
	e.Floats32(s.rows)
	for _, sc := range s.scal {
		for _, b := range sc.mask {
			e.Bool(b)
		}
		e.Int(sc.action)
		e.F64(sc.reward)
		for _, b := range sc.nextMask {
			e.Bool(b)
		}
		e.Int(sc.elapsed)
		e.Bool(sc.terminal)
	}
}

// scalarBytes is one transition's encoded scalars: two masks, action,
// reward, elapsed, terminal.
const scalarBytes = 2*sim.NumActions + 8 + 8 + 8 + 1

// DecodeTransitions reads a store written by EncodeTransitions into an
// unbounded store, validating the row block's length against the count,
// action indices and elapsed slot counts.
func DecodeTransitions(d *checkpoint.Decoder) (TransitionStore, error) {
	count := d.U32()
	rows := d.Floats32()
	if err := d.Err(); err != nil {
		return TransitionStore{}, err
	}
	if want := int64(count) * rowStride; int64(len(rows)) != want {
		return TransitionStore{}, fmt.Errorf("policy: transition block holds %d values, want %d for %d transitions", len(rows), want, count)
	}
	n, ok := d.Count(count, scalarBytes)
	if !ok {
		return TransitionStore{}, d.Err()
	}
	s := TransitionStore{rows: rows, scal: make([]storedScalars, n)}
	for i := range s.scal {
		sc := &s.scal[i]
		for j := range sc.mask {
			sc.mask[j] = d.Bool()
		}
		sc.action = d.Int()
		sc.reward = d.F64()
		for j := range sc.nextMask {
			sc.nextMask[j] = d.Bool()
		}
		sc.elapsed = d.Int()
		sc.terminal = d.Bool()
		if err := d.Err(); err != nil {
			return TransitionStore{}, err
		}
		if sc.action < 0 || sc.action >= sim.NumActions {
			return TransitionStore{}, fmt.Errorf("policy: transition %d has action %d outside [0,%d)", i, sc.action, sim.NumActions)
		}
		if sc.elapsed < 0 {
			return TransitionStore{}, fmt.Errorf("policy: transition %d has negative elapsed %d", i, sc.elapsed)
		}
	}
	return s, nil
}
