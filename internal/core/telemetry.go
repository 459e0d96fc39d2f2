package core

import (
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// coreTel extends the shared training handles with actor-critic-specific
// diagnostics: per-epoch critic loss and advantage statistics, separate
// actor/critic/behavior-cloning step counters, pre-clip gradient-norm
// distributions for both networks, and a phase gauge distinguishing the
// demonstration warm start from RL fine-tuning. The zero value is inert.
type coreTel struct {
	policy.TrainTel
	phase        *telemetry.Gauge // 0 = demonstration (Pretrain), 1 = RL fine-tune (Train)
	criticLoss   *telemetry.Gauge // latest per-episode mean critic loss
	meanAdvAbs   *telemetry.Gauge // latest per-episode mean |advantage|
	advStd       *telemetry.Gauge // latest minibatch advantage std (pre-normalization)
	demoEpisodes *telemetry.Counter
	actorSteps   *telemetry.Counter
	criticSteps  *telemetry.Counter
	cloneSteps   *telemetry.Counter
	actorGrad    *telemetry.Histogram
	criticGrad   *telemetry.Histogram
}

// SetTelemetry installs (or, with nil, removes) training telemetry under the
// "core." prefix, and Act's policy.decide.* timers. Telemetry is write-only
// — the trainer never reads a value back — so enabling it cannot change the
// training trajectory or RNG use.
func (f *FairMove) SetTelemetry(r *telemetry.Registry) {
	f.dec.SetTelemetry(r)
	if r == nil {
		f.tel = coreTel{}
		return
	}
	f.tel = coreTel{
		TrainTel:     policy.NewTrainTel(r, "core"),
		phase:        r.Gauge("core.phase"),
		criticLoss:   r.Gauge("core.critic_loss"),
		meanAdvAbs:   r.Gauge("core.mean_adv_abs"),
		advStd:       r.Gauge("core.adv_std"),
		demoEpisodes: r.Counter("core.demo_episodes"),
		actorSteps:   r.Counter("core.actor_steps"),
		criticSteps:  r.Counter("core.critic_steps"),
		cloneSteps:   r.Counter("core.clone_steps"),
		actorGrad:    r.Histogram("core.actor_grad_norm", 0, 10, 20),
		criticGrad:   r.Histogram("core.critic_grad_norm", 0, 10, 20),
	}
}
