package policy

import (
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/synth"
)

// Cloner marks policies that can hand each rollout worker a private
// instance. The clone must behave identically to the original after
// BeginEpisode(seed) — all per-episode state is re-derived from the seed —
// so cloning is just copying configuration and dropping shared mutable
// state. Guide policies implement it to unlock parallel demonstration
// rollouts; learners falling back to a non-Cloner guide run serially.
type Cloner interface {
	Policy
	// CloneForWorker returns an independent instance safe to drive from
	// another goroutine.
	CloneForWorker() Policy
}

// demoSeedOffset is the shared pretraining seed convention: episode ep of a
// pretraining run seeded with s replays demand realization s+7000+ep. Every
// learner uses the same offset so all warm starts see the same teacher
// demonstrations for a given seed.
const demoSeedOffset = 7000

// DemoEpisodeSeed returns the seed of pretraining episode ep under run seed.
func DemoEpisodeSeed(seed int64, ep int) int64 { return seed + demoSeedOffset + int64(ep) }

// EpisodeOptions returns the simulation options of a training or
// demonstration episode: the default protocol over days, stepped with the
// given shard count.
func EpisodeOptions(days, shards int) sim.Options {
	opts := sim.DefaultOptions(days)
	opts.Shards = shards
	return opts
}

// collectDemos rolls out demonstration episodes [from, episodes) driven by
// guide and returns each one's transitions, in episode order. Episodes are
// independent — each gets a fresh environment and rng streams derived only
// from its own DemoEpisodeSeed — so they fan out across tr.Workers, and the
// result is byte-identical for any worker count and to the matching tail of
// a collection that started at episode 0. Rewards accrue with tr's (Alpha,
// Gamma), so the transitions slot directly into the learner's update rule.
//
// If guide does not implement Cloner the rollout runs serially on the shared
// instance, whatever tr.Workers says: correctness beats speed.
func collectDemos(tr Training, city *synth.City, guide Policy, from, episodes, days int, seed int64) []TransitionStore {
	n := episodes - from
	if n <= 0 {
		return nil
	}
	workers := tr.Workers
	cloner, ok := guide.(Cloner)
	if !ok {
		workers = 1
	}
	rollout := func(g Policy, ep int) TransitionStore {
		var buf TransitionStore
		demoRollout(tr, city, g, days, DemoEpisodeSeed(seed, ep), func(sim.Environment) func(int, *Transition) {
			return func(id int, t *Transition) {
				if t != nil {
					buf.Add(t)
				}
			}
		})
		return buf
	}
	if parallel.Resolve(workers) == 1 || n == 1 {
		out := make([]TransitionStore, n)
		for i := 0; i < n; i++ {
			out[i] = rollout(guide, from+i)
		}
		return out
	}
	out, _ := parallel.Map(workers, n, func(i int) (TransitionStore, error) {
		return rollout(cloner.CloneForWorker(), from+i), nil
	})
	return out
}

// demoRollout drives the demonstration episode seeded epSeed with guide on a
// fresh training environment, reporting its transitions to the hook that
// hook builds for that environment.
func demoRollout(tr Training, city *synth.City, guide Policy, days int, epSeed int64, hook func(env sim.Environment) func(id int, t *Transition)) {
	env := sim.New(city, EpisodeOptions(days, tr.Shards), epSeed)
	guide.BeginEpisode(epSeed)
	RunEpisode(env, guide, false, tr.Alpha, tr.Gamma, hook(env))
}
