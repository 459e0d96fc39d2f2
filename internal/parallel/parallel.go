// Package parallel is the deterministic worker-pool primitive under the
// runtime's fan-out paths (CompareAll, AlphaSweep, batched inference,
// demonstration rollouts). Its contract is stronger than "run things
// concurrently": results are always collected in input order, so any
// caller that feeds it tasks whose outputs depend only on their own
// inputs (independent rng streams, private envs, read-only shared state)
// gets byte-identical output regardless of worker count.
package parallel

import (
	"context"
	"fmt"
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

// panicError carries a worker panic across the goroutine boundary so it can
// be re-raised on the calling goroutine with the original value preserved.
type panicError struct{ value any }

func (p panicError) Error() string { return fmt.Sprintf("parallel: worker panic: %v", p.value) }

// ForEach runs fn(ctx, i) for every i in [0, n) using at most workers
// concurrent goroutines. The first error observed (in wall-clock order, not
// task-index order) is returned, and the derived context is cancelled so
// in-flight and queued tasks can bail early. A panic inside fn is captured
// and re-raised on the calling goroutine. With workers <= 1 the loop runs
// inline on the caller.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	tel := batchTel()
	if workers == 1 {
		w0 := tel.worker(0)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			tel.queueDepth.Set(float64(n - i - 1))
			sw := tel.taskTime.Start()
			err := fn(ctx, i)
			sw.Stop()
			tel.tasks.Inc()
			w0.Inc()
			if err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64 // next task index to claim
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				fail(panicError{value: r})
			}
		}()
		if err := fn(ctx, i); err != nil {
			fail(err)
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		wc := tel.worker(w)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				tel.queueDepth.Set(float64(n - i - 1))
				sw := tel.taskTime.Start()
				run(i)
				sw.Stop()
				tel.tasks.Inc()
				wc.Inc()
			}
		}()
	}
	wg.Wait()
	if pe, ok := firstErr.(panicError); ok {
		panic(pe.value)
	}
	return firstErr
}

// Map runs fn(ctx, i) for every i in [0, n) on at most workers goroutines
// and returns the results in input order — the property the deterministic
// runtime leans on. Error and panic semantics match ForEach; on error the
// partial results are discarded and a nil slice is returned.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, workers, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
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
