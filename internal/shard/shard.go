// Package shard splits the city's region graph into K contiguous shards.
// The simulator (internal/sim) gives each shard its own kernel, advanced
// concurrently within a slot and synchronized at deterministic barriers.
// Because every random stream is split per region or per station — never
// per shard — and all cross-shard exchange happens in canonical order under
// the barriers, the trajectory is byte-identical for every K: shards=1
// equals shards=N on every golden scenario fixture. The invariance battery
// in this package's tests checks exactly that.
package shard

import (
	"sort"

	"repro/internal/partition"
)

// Assign partitions the region graph into k contiguous, balanced shards by
// multi-source BFS: k seeds spread across the ID range, then round-robin
// growth where each shard claims the smallest-ID unassigned region adjacent
// to it (disconnected leftovers are dealt round-robin). The result depends
// only on the partition and k, never on scheduling. k is clamped to
// [1, regions].
func Assign(p *partition.Partition, k int) []int {
	n := p.Len()
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	members := make([][]int, k)
	for s := 0; s < k; s++ {
		seed := s * n / k
		owner[seed] = s
		members[s] = append(members[s], seed)
	}
	assigned := k
	for assigned < n {
		progress := false
		for s := 0; s < k && assigned < n; s++ {
			best := -1
			for _, r := range members[s] {
				for _, nb := range p.Region(r).Neighbors {
					if owner[nb] < 0 && (best < 0 || nb < best) {
						best = nb
					}
				}
			}
			if best < 0 {
				continue
			}
			owner[best] = s
			members[s] = append(members[s], best)
			assigned++
			progress = true
		}
		if !progress {
			for r := 0; r < n && assigned < n; r++ {
				if owner[r] < 0 {
					s := assigned % k
					owner[r] = s
					members[s] = append(members[s], r)
					assigned++
				}
			}
		}
	}
	for s := range members {
		sort.Ints(members[s])
	}
	return owner
}
