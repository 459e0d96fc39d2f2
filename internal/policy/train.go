package policy

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/sim"
	"repro/internal/synth"
)

// Progress is a learner's resume position: the demonstration and fine-tune
// episodes it has completed. Checkpoints are cut at episode boundaries,
// where every per-episode stream re-derives from (seed, episode), so these
// two counters plus a learner's serialized state fully determine the rest of
// a run. Every learner embeds one; only Pretrain and Train advance it.
type Progress struct {
	demoDone, epDone int
}

// CheckpointProgress implements checkpoint.Checkpointer for every learner:
// a learner is in the fine-tuning phase as soon as it has completed a
// fine-tune episode.
func (p *Progress) CheckpointProgress() (int, int) {
	if p.epDone > 0 {
		return checkpoint.PhaseTrain, p.epDone
	}
	return checkpoint.PhasePretrain, p.demoDone
}

func (p *Progress) progress() *Progress { return p }

// EncodeProgress appends the counter pair, the first field of every learner
// payload.
func (p *Progress) EncodeProgress(e *checkpoint.Encoder) {
	e.Int(p.demoDone)
	e.Int(p.epDone)
}

// DecodeProgress reads a pair written by EncodeProgress and rejects negative
// counts.
func DecodeProgress(dec *checkpoint.Decoder) (Progress, error) {
	p := Progress{demoDone: dec.Int(), epDone: dec.Int()}
	if p.demoDone < 0 || p.epDone < 0 {
		return Progress{}, fmt.Errorf("policy: checkpoint has negative episode counters (%d, %d)", p.demoDone, p.epDone)
	}
	return p, nil
}

// Learner is a policy that Pretrain and Train can train and resume: DQN,
// TQL, TBA and CMA2C (internal/core). The loop owns the protocol — training
// environments, episode seeds, the Reset → BeginEpisode order, Progress and
// the checkpoint cadence — so a run restored from a checkpoint and given the
// identical command finishes byte-identical to one that never stopped; the
// learner supplies only its learning arithmetic (Training).
type Learner interface {
	Policy
	checkpoint.Checkpointer
	// Training returns the learner's side of the protocol.
	Training() Training
	progress() *Progress // promoted from the embedded Progress
}

// Training is a learner's side of the training protocol: where its episodes
// run, what its demonstration rollouts reward, and its learning hooks.
// Exactly one of LearnDemo and DemoHook is set; Episode always is.
type Training struct {
	Shards  int      // sim.Options.Shards of every training environment
	Workers int      // demonstration rollout workers; <= 0 means GOMAXPROCS
	Alpha   float64  // reward blend of demonstration rollouts
	Gamma   float64  // discount of demonstration rollouts
	Tel     TrainTel // Train records episodes, mean reward and episode time here

	// StartPhase, when set, runs as Pretrain (checkpoint.PhasePretrain) or
	// Train (checkpoint.PhaseTrain) begins, before its first episode.
	StartPhase func(phase int)
	// LearnDemo learns from one demonstration episode's transitions, which
	// the guide drove on a fresh environment; the learner's episode has
	// begun at the same DemoEpisodeSeed.
	LearnDemo func(buf *TransitionStore)
	// DemoHook, set in place of LearnDemo, learns inside the guide-driven
	// rollout instead, for a learner whose update reads the live
	// environment: it returns the rollout's RunEpisode hook on env.
	DemoHook func(env sim.Environment) func(id int, tr *Transition)
	// Episode rolls out and learns fine-tune episode ep of episodes on env,
	// reset and begun at the episode's seed. It returns the episode's mean
	// decision reward and may add learner diagnostics to stats.
	Episode func(env sim.Environment, ep, episodes int, stats *TrainStats) float64
}

// TrainStats summarizes one Train call.
type TrainStats struct {
	Episodes      int       // the fine-tune episode total trained toward
	MeanReward    []float64 // per episode run: mean decision reward (Table IV's r)
	CriticLoss    []float64 // per episode run: mean critic loss (CMA2C)
	Transitions   int       // transitions learned from (CMA2C)
	StatesVisited int       // Q-table entries after the last episode (TQL)
}

// Pretrain warm-starts l from demonstration episodes driven by guide until
// episodes in total are complete: episode ep replays demand realization
// DemoEpisodeSeed(seed, ep) over days. Guide-driven rollouts do not depend on
// the learner's weights, so for a LearnDemo learner they fan out across its
// Workers up front and are learned from serially in episode order,
// byte-identical to a serial run. The zero opts writes no checkpoints.
func Pretrain(l Learner, city *synth.City, guide Policy, episodes, days int, seed int64, opts checkpoint.TrainOptions) error {
	tr, p := l.Training(), l.progress()
	if tr.StartPhase != nil {
		tr.StartPhase(checkpoint.PhasePretrain)
	}
	from := p.demoDone
	var bufs []TransitionStore
	if tr.DemoHook == nil {
		bufs = collectDemos(tr, city, guide, from, episodes, days, seed)
	}
	return runEpisodes(l, opts, &p.demoDone, episodes, func(ep int) {
		epSeed := DemoEpisodeSeed(seed, ep)
		l.BeginEpisode(epSeed)
		if tr.DemoHook != nil {
			demoRollout(tr, city, guide, days, epSeed, tr.DemoHook)
		} else {
			tr.LearnDemo(&bufs[ep-from])
		}
	})
}

// Train fine-tunes l until episodes in total are complete: episode ep
// simulates demand realization seed+ep over days. A learner restored from a
// mid-run checkpoint picks up at its next episode; the total matters because
// schedules (DQN's ε decay) span all of them. The zero opts writes no
// checkpoints.
func Train(l Learner, city *synth.City, episodes, days int, seed int64, opts checkpoint.TrainOptions) (TrainStats, error) {
	tr, p := l.Training(), l.progress()
	if tr.StartPhase != nil {
		tr.StartPhase(checkpoint.PhaseTrain)
	}
	stats := TrainStats{Episodes: episodes}
	env := sim.New(city, EpisodeOptions(days, tr.Shards), seed)
	err := runEpisodes(l, opts, &p.epDone, episodes, func(ep int) {
		epSeed := seed + int64(ep)
		env.Reset(epSeed)
		l.BeginEpisode(epSeed)
		epTime := tr.Tel.EpisodeTime.Start()
		mean := tr.Episode(env, ep, episodes, &stats)
		epTime.Stop()
		tr.Tel.Episodes.Inc()
		tr.Tel.MeanReward.Set(mean)
		stats.MeanReward = append(stats.MeanReward, mean)
	})
	return stats, err
}

// runEpisodes runs episode for each of [*done, total), advancing *done after
// each and writing l's checkpoint whenever opts' cadence is due.
func runEpisodes(l Learner, opts checkpoint.TrainOptions, done *int, total int, episode func(ep int)) error {
	for ep := *done; ep < total; ep++ {
		episode(ep)
		*done = ep + 1
		if opts.ShouldSave(*done, total) {
			if _, err := checkpoint.SaveDir(opts.Dir, l, opts.Keep); err != nil {
				return err
			}
		}
	}
	return nil
}
