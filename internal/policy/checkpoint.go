package policy

import (
	"fmt"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/sim"
)

// Checkpointer implementations for the three trainable baselines. Each
// learner serializes exactly the state that survives an episode boundary —
// weights, optimizer moments, replay/demo buffers, schedule position — and
// nothing transient (rng sources are re-derived by BeginEpisode, exploration
// flags by the training loop). Decoding is all-or-nothing: state is read
// into temporaries, validated, and committed only if the whole payload was
// sound, so a corrupt checkpoint leaves a live learner byte-identical to
// before the Load attempt.

// EncodeTransitions appends a transition buffer (replay memory or
// demonstration store) to the payload.
func EncodeTransitions(e *checkpoint.Encoder, trs []Transition) {
	e.U32(uint32(len(trs)))
	for _, tr := range trs {
		e.Floats(tr.Obs)
		for _, b := range tr.Mask {
			e.Bool(b)
		}
		e.Int(tr.Action)
		e.F64(tr.Reward)
		e.Floats(tr.NextObs)
		for _, b := range tr.NextMask {
			e.Bool(b)
		}
		e.Int(tr.Elapsed)
		e.Bool(tr.Terminal)
	}
}

// minTransitionBytes is the smallest possible encoded transition: two slice
// length prefixes, two fixed masks, action, reward, elapsed, terminal.
const minTransitionBytes = 4 + sim.NumActions + 8 + 8 + 4 + sim.NumActions + 8 + 1

// DecodeTransitions reads a buffer written by EncodeTransitions, validating
// feature widths and action indices.
func DecodeTransitions(d *checkpoint.Decoder) ([]Transition, error) {
	n, ok := d.Count(d.U32(), minTransitionBytes)
	if !ok {
		return nil, d.Err()
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]Transition, n)
	for i := range out {
		tr := &out[i]
		tr.Obs = d.Floats()
		for j := range tr.Mask {
			tr.Mask[j] = d.Bool()
		}
		tr.Action = d.Int()
		tr.Reward = d.F64()
		tr.NextObs = d.Floats()
		for j := range tr.NextMask {
			tr.NextMask[j] = d.Bool()
		}
		tr.Elapsed = d.Int()
		tr.Terminal = d.Bool()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if len(tr.Obs) != sim.FeatureSize {
			return nil, fmt.Errorf("policy: transition %d has %d features, want %d", i, len(tr.Obs), sim.FeatureSize)
		}
		if len(tr.NextObs) != 0 && len(tr.NextObs) != sim.FeatureSize {
			return nil, fmt.Errorf("policy: transition %d has %d next features, want 0 or %d", i, len(tr.NextObs), sim.FeatureSize)
		}
		if tr.Action < 0 || tr.Action >= sim.NumActions {
			return nil, fmt.Errorf("policy: transition %d has action %d outside [0,%d)", i, tr.Action, sim.NumActions)
		}
		if tr.Elapsed < 0 {
			return nil, fmt.Errorf("policy: transition %d has negative elapsed %d", i, tr.Elapsed)
		}
	}
	return out, nil
}

// progress maps the shared (demoDone, epDone) counters to the container's
// phase/episode header: a learner is in the fine-tuning phase as soon as it
// has completed a fine-tune episode.
func progress(demoDone, epDone int) (int, int) {
	if epDone > 0 {
		return checkpoint.PhaseTrain, epDone
	}
	return checkpoint.PhasePretrain, demoDone
}

// --- DQN ---

// CheckpointKind implements checkpoint.Checkpointer.
func (d *DQN) CheckpointKind() string { return "dqn" }

// CheckpointFingerprint implements checkpoint.Checkpointer. It covers every
// hyperparameter that shapes the serialized state or the remaining training
// schedule; Workers and EvalEpsilon are excluded because they never change
// results.
func (d *DQN) CheckpointFingerprint() uint64 {
	return checkpoint.Fingerprint(fmt.Sprintf(
		"dqn|alpha=%g|gamma=%g|eps=%g|mineps=%g|hidden=%v|lr=%g|batch=%d|buffer=%d|target=%d|cql=%g|feat=%d|actions=%d",
		d.Alpha, d.Gamma, d.Epsilon, d.MinEps, d.Hidden, d.LR, d.Batch, d.Buffer, d.TargetEvery, d.CQLAlpha,
		sim.FeatureSize, sim.NumActions))
}

// CheckpointProgress implements checkpoint.Checkpointer.
func (d *DQN) CheckpointProgress() (int, int) { return progress(d.demoDone, d.epDone) }

// EncodeCheckpoint implements checkpoint.Checkpointer.
func (d *DQN) EncodeCheckpoint(e *checkpoint.Encoder) {
	e.Int(d.demoDone)
	e.Int(d.epDone)
	e.Int(d.steps)
	e.F64(d.eps)
	checkpoint.EncodeMLP(e, d.net)
	checkpoint.EncodeMLP(e, d.target)
	checkpoint.EncodeAdam(e, d.opt)
	EncodeTransitions(e, d.replay)
	e.Int(d.rpPos)
}

// DecodeCheckpoint implements checkpoint.Checkpointer.
func (d *DQN) DecodeCheckpoint(dec *checkpoint.Decoder) error {
	demoDone, epDone, steps := dec.Int(), dec.Int(), dec.Int()
	eps := dec.F64()
	net, err := checkpoint.DecodeMLP(dec)
	if err != nil {
		return err
	}
	target, err := checkpoint.DecodeMLP(dec)
	if err != nil {
		return err
	}
	opt, err := checkpoint.DecodeAdam(dec)
	if err != nil {
		return err
	}
	replay, err := DecodeTransitions(dec)
	if err != nil {
		return err
	}
	rpPos := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if demoDone < 0 || epDone < 0 || steps < 0 {
		return fmt.Errorf("policy: dqn checkpoint has negative counters (%d, %d, %d)", demoDone, epDone, steps)
	}
	if net.InputSize() != sim.FeatureSize || net.OutputSize() != sim.NumActions {
		return fmt.Errorf("policy: dqn net shape %d -> %d, want %d -> %d", net.InputSize(), net.OutputSize(), sim.FeatureSize, sim.NumActions)
	}
	if !checkpoint.SameShape(net, target) {
		return fmt.Errorf("policy: dqn target network shape differs from online network")
	}
	if !checkpoint.AdamMatches(opt, net) {
		return fmt.Errorf("policy: dqn optimizer moments do not fit the network")
	}
	if len(replay) > d.Buffer {
		return fmt.Errorf("policy: dqn replay holds %d transitions, capacity %d", len(replay), d.Buffer)
	}
	if rpPos < 0 || rpPos > len(replay) {
		return fmt.Errorf("policy: dqn replay cursor %d outside [0,%d]", rpPos, len(replay))
	}
	d.demoDone, d.epDone, d.steps, d.eps = demoDone, epDone, steps, eps
	d.net, d.target, d.opt = net, target, opt
	d.replay, d.rpPos = replay, rpPos
	d.exploring = false
	return nil
}

// --- TQL ---

// CheckpointKind implements checkpoint.Checkpointer.
func (t *TQL) CheckpointKind() string { return "tql" }

// CheckpointFingerprint implements checkpoint.Checkpointer.
func (t *TQL) CheckpointFingerprint() uint64 {
	return checkpoint.Fingerprint(fmt.Sprintf(
		"tql|alpha=%g|gamma=%g|lr=%g|eps=%g|bins=%d|actions=%d",
		t.Alpha, t.Gamma, t.LR, t.Epsilon, t.TimeBins, sim.NumActions))
}

// CheckpointProgress implements checkpoint.Checkpointer.
func (t *TQL) CheckpointProgress() (int, int) { return progress(t.demoDone, t.epDone) }

// minQEntryBytes is one encoded Q-table entry: timeBin + region + lowSoC +
// one value per action.
const minQEntryBytes = 8 + 8 + 1 + 8*sim.NumActions

// EncodeCheckpoint implements checkpoint.Checkpointer. The Q-table is a map,
// so entries are emitted in sorted key order — encoding the same table twice
// must produce identical bytes.
func (t *TQL) EncodeCheckpoint(e *checkpoint.Encoder) {
	e.Int(t.demoDone)
	e.Int(t.epDone)
	keys := make([]tqlState, 0, len(t.q))
	for k := range t.q {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.timeBin != b.timeBin {
			return a.timeBin < b.timeBin
		}
		if a.region != b.region {
			return a.region < b.region
		}
		return !a.lowSoC && b.lowSoC
	})
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		e.Int(k.timeBin)
		e.Int(k.region)
		e.Bool(k.lowSoC)
		qs := t.q[k]
		for _, q := range qs {
			e.F64(q)
		}
	}
}

// DecodeCheckpoint implements checkpoint.Checkpointer.
func (t *TQL) DecodeCheckpoint(dec *checkpoint.Decoder) error {
	demoDone, epDone := dec.Int(), dec.Int()
	n, ok := dec.Count(dec.U32(), minQEntryBytes)
	if !ok {
		return dec.Err()
	}
	q := make(map[tqlState][sim.NumActions]float64, n)
	for i := 0; i < n; i++ {
		st := tqlState{timeBin: dec.Int(), region: dec.Int(), lowSoC: dec.Bool()}
		var qs [sim.NumActions]float64
		for j := range qs {
			qs[j] = dec.F64()
		}
		if err := dec.Err(); err != nil {
			return err
		}
		if _, dup := q[st]; dup {
			return fmt.Errorf("policy: tql checkpoint repeats state %+v", st)
		}
		q[st] = qs
	}
	if err := dec.Err(); err != nil {
		return err
	}
	if demoDone < 0 || epDone < 0 {
		return fmt.Errorf("policy: tql checkpoint has negative counters (%d, %d)", demoDone, epDone)
	}
	t.demoDone, t.epDone, t.q = demoDone, epDone, q
	t.exploring = false
	return nil
}

// --- TBA ---

// CheckpointKind implements checkpoint.Checkpointer.
func (t *TBA) CheckpointKind() string { return "tba" }

// CheckpointFingerprint implements checkpoint.Checkpointer.
func (t *TBA) CheckpointFingerprint() uint64 {
	return checkpoint.Fingerprint(fmt.Sprintf(
		"tba|gamma=%g|lr=%g|hidden=%v|feat=%d|actions=%d",
		t.Gamma, t.LR, t.Hidden, sim.FeatureSize, sim.NumActions))
}

// CheckpointProgress implements checkpoint.Checkpointer.
func (t *TBA) CheckpointProgress() (int, int) { return progress(t.demoDone, t.epDone) }

// EncodeCheckpoint implements checkpoint.Checkpointer.
func (t *TBA) EncodeCheckpoint(e *checkpoint.Encoder) {
	e.Int(t.demoDone)
	e.Int(t.epDone)
	e.Bool(t.fineTuning)
	e.F64(t.baseline)
	e.Int(t.baseN)
	checkpoint.EncodeMLP(e, t.net)
	checkpoint.EncodeAdam(e, t.opt)
	EncodeTransitions(e, t.demo)
}

// DecodeCheckpoint implements checkpoint.Checkpointer.
func (t *TBA) DecodeCheckpoint(dec *checkpoint.Decoder) error {
	demoDone, epDone := dec.Int(), dec.Int()
	fineTuning := dec.Bool()
	baseline := dec.F64()
	baseN := dec.Int()
	net, err := checkpoint.DecodeMLP(dec)
	if err != nil {
		return err
	}
	opt, err := checkpoint.DecodeAdam(dec)
	if err != nil {
		return err
	}
	demo, err := DecodeTransitions(dec)
	if err != nil {
		return err
	}
	if err := dec.Err(); err != nil {
		return err
	}
	if demoDone < 0 || epDone < 0 || baseN < 0 {
		return fmt.Errorf("policy: tba checkpoint has negative counters (%d, %d, %d)", demoDone, epDone, baseN)
	}
	if net.InputSize() != sim.FeatureSize || net.OutputSize() != sim.NumActions {
		return fmt.Errorf("policy: tba net shape %d -> %d, want %d -> %d", net.InputSize(), net.OutputSize(), sim.FeatureSize, sim.NumActions)
	}
	if !checkpoint.AdamMatches(opt, net) {
		return fmt.Errorf("policy: tba optimizer moments do not fit the network")
	}
	t.demoDone, t.epDone, t.fineTuning = demoDone, epDone, fineTuning
	t.baseline, t.baseN = baseline, baseN
	t.net, t.opt, t.demo = net, opt, demo
	return nil
}
