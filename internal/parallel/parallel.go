// Package parallel is the one fan-out primitive under the runtime's
// concurrent paths: the sharded engine's phases, the tiled decide, and Map's
// whole evaluations and trainings (CompareAll, AlphaSweep, report cells,
// demonstration rollouts). Its contract is stronger than "run things
// concurrently": results are always collected in input order, so any
// caller that feeds it tasks whose outputs depend only on their own
// inputs (independent rng streams, private envs, read-only shared state)
// gets byte-identical output regardless of worker count.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve normalizes a worker-count setting: values <= 0 mean "use every
// available core" (GOMAXPROCS). Callers store 0 as the default so that
// zero-valued configs transparently scale to the machine.
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Map runs fn(i) for every i in [0, n) on at most workers blocks of a Fan
// and returns the results in input order — the property the deterministic
// runtime leans on. Each block claims tasks in index order. Once a task
// fails no higher-indexed task starts, and Map returns the error of the
// lowest failing index — what a sequential loop returns — with a nil slice.
// A panic in fn is re-raised on the caller.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	var (
		next, stop atomic.Int64 // next index to claim; claims at or past stop do not run
		mu         sync.Mutex
		firstErr   error
		f          Fan
	)
	stop.Store(int64(n))
	f.Run(min(Resolve(workers), n), func(int) {
		for {
			i := next.Add(1) - 1
			if i >= stop.Load() {
				return
			}
			v, err := fn(int(i))
			if err != nil {
				mu.Lock()
				if i < stop.Load() {
					stop.Store(i)
					firstErr = err
				}
				mu.Unlock()
				return
			}
			out[i] = v
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Chunk returns range i of the split of [0, n) into parts contiguous
// half-open ranges of near-equal size (0 < parts <= n), for batched
// kernels that want each worker to own a contiguous block: cache-friendly,
// and the block boundaries are a pure function of (n, parts), so the work
// split is deterministic too.
func Chunk(n, parts, i int) (lo, hi int) {
	base, rem := n/parts, n%parts
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}
