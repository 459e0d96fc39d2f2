package policy

import (
	"context"

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

// CollectDemos rolls out episodes of guide-driven demonstrations and returns
// each episode's transitions, indexed by episode. Episodes are independent —
// each gets a fresh environment and rng streams derived only from its own
// episode seed — so they fan out across workers; the returned order is
// always episode order, making the result byte-identical for any worker
// count. Rewards accrue with the caller's (alpha, gamma) so the transitions
// slot directly into the caller's update rule.
//
// If guide does not implement Cloner the rollout runs serially on the shared
// instance, whatever workers says: correctness beats speed.
func CollectDemos(city *synth.City, guide Policy, episodes, days int, seed int64, workers int, alpha, gamma float64) [][]Transition {
	return CollectDemosFrom(1, city, guide, 0, episodes, days, seed, workers, alpha, gamma)
}

// CollectDemosFrom is CollectDemos restricted to episodes [from, episodes) —
// the resume path: a learner restored from a pretraining checkpoint replays
// only the demonstrations it has not consumed yet. Episode ep still rolls
// out under DemoEpisodeSeed(seed, ep), so the collected transitions are
// byte-identical to the corresponding tail of a full collection. shards is
// the rollout environments' sim.Options.Shards.
func CollectDemosFrom(shards int, city *synth.City, guide Policy, from, episodes, days int, seed int64, workers int, alpha, gamma float64) [][]Transition {
	if from < 0 {
		from = 0
	}
	n := episodes - from
	if n <= 0 {
		return nil
	}
	cloner, ok := guide.(Cloner)
	if !ok {
		workers = 1
	}
	rollout := func(g Policy, ep int) []Transition {
		epSeed := DemoEpisodeSeed(seed, ep)
		env := sim.New(city, EpisodeOptions(days, shards), epSeed)
		g.BeginEpisode(epSeed)
		var buf []Transition
		RunEpisode(env, g, false, alpha, gamma, func(id int, tr *Transition) {
			if tr != nil {
				buf = append(buf, tr.Detach())
			}
		})
		return buf
	}
	if parallel.Resolve(workers) == 1 || n == 1 {
		out := make([][]Transition, n)
		for i := 0; i < n; i++ {
			out[i] = rollout(guide, from+i)
		}
		return out
	}
	out, _ := parallel.Map(context.Background(), workers, n, func(_ context.Context, i int) ([]Transition, error) {
		return rollout(cloner.CloneForWorker(), from+i), nil
	})
	return out
}
