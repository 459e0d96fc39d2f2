package core

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/policy"
	"repro/internal/sim"
)

// FairMove's checkpoint.Checkpointer implementation. The serialized state is
// everything that survives an episode boundary: both networks and their
// target, both optimizers (including the fine-tune learning rate and Adam
// moments), the demonstration buffer, the resume position (policy.Progress),
// and the fine-tuning flag. Transient state — rng source, telemetry
// handles — is re-derived by the training loop.

// CheckpointKind implements checkpoint.Checkpointer.
func (f *FairMove) CheckpointKind() string { return "cma2c" }

// CheckpointFingerprint implements checkpoint.Checkpointer. It covers every
// Config field that shapes the serialized state or the training trajectory;
// Workers and Shards are excluded because any value produces byte-identical
// results.
func (f *FairMove) CheckpointFingerprint() uint64 {
	c := f.cfg
	return checkpoint.Fingerprint(fmt.Sprintf(
		"cma2c|alpha=%g|gamma=%g|actorlr=%g|criticlr=%g|hidden=%v|entropy=%g|batch=%d|iters=%d|seed=%d|feat=%d|actions=%d",
		c.Alpha, c.Gamma, c.ActorLR, c.CriticLR, c.Hidden, c.EntropyCoef, c.Batch, c.UpdateIters, c.Seed,
		sim.FeatureSize, sim.NumActions))
}

// EncodeCheckpoint implements checkpoint.Checkpointer.
func (f *FairMove) EncodeCheckpoint(e *checkpoint.Encoder) {
	f.EncodeProgress(e)
	e.Bool(f.fineTuning)
	checkpoint.EncodeMLP(e, f.actor)
	checkpoint.EncodeMLP(e, f.critic)
	checkpoint.EncodeMLP(e, f.targetCritic)
	checkpoint.EncodeAdam(e, f.actorOpt)
	checkpoint.EncodeAdam(e, f.criticOpt)
	policy.EncodeTransitions(e, &f.demo)
}

// DecodeCheckpoint implements checkpoint.Checkpointer. State is decoded into
// temporaries and committed only after every validation passes, so a corrupt
// payload leaves the live system untouched.
func (f *FairMove) DecodeCheckpoint(dec *checkpoint.Decoder) error {
	prog, err := policy.DecodeProgress(dec)
	if err != nil {
		return err
	}
	fineTuning := dec.Bool()
	actor, err := checkpoint.DecodeMLP(dec)
	if err != nil {
		return err
	}
	critic, err := checkpoint.DecodeMLP(dec)
	if err != nil {
		return err
	}
	targetCritic, err := checkpoint.DecodeMLP(dec)
	if err != nil {
		return err
	}
	actorOpt, err := checkpoint.DecodeAdam(dec)
	if err != nil {
		return err
	}
	criticOpt, err := checkpoint.DecodeAdam(dec)
	if err != nil {
		return err
	}
	demo, err := policy.DecodeTransitions(dec)
	if err != nil {
		return err
	}
	if err := dec.Err(); err != nil {
		return err
	}
	if actor.InputSize() != sim.FeatureSize || actor.OutputSize() != sim.NumActions {
		return fmt.Errorf("core: actor shape %d -> %d, want %d -> %d", actor.InputSize(), actor.OutputSize(), sim.FeatureSize, sim.NumActions)
	}
	if critic.InputSize() != sim.FeatureSize || critic.OutputSize() != 1 {
		return fmt.Errorf("core: critic shape %d -> %d, want %d -> 1", critic.InputSize(), critic.OutputSize(), sim.FeatureSize)
	}
	if !checkpoint.SameShape(critic, targetCritic) {
		return fmt.Errorf("core: target critic shape differs from critic")
	}
	if !checkpoint.AdamMatches(actorOpt, actor) {
		return fmt.Errorf("core: actor optimizer moments do not fit the actor")
	}
	if !checkpoint.AdamMatches(criticOpt, critic) {
		return fmt.Errorf("core: critic optimizer moments do not fit the critic")
	}
	f.Progress, f.fineTuning = prog, fineTuning
	f.actor, f.critic, f.targetCritic = actor, critic, targetCritic
	f.actorOpt, f.criticOpt = actorOpt, criticOpt
	f.demo = demo
	return nil
}
