package parallel

import (
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestResolve(t *testing.T) {
	if got := Resolve(3); got != 3 {
		t.Fatalf("Resolve(3) = %d", got)
	}
	if got := Resolve(0); got < 1 {
		t.Fatalf("Resolve(0) = %d, want >= 1", got)
	}
	if got := Resolve(-5); got != Resolve(0) {
		t.Fatalf("Resolve(-5) = %d, want %d", got, Resolve(0))
	}
}

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		out, err := Map(workers, 100, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapBoundedConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	_, err := Map(workers, 50, func(i int) (struct{}, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks, cap is %d", p, workers)
	}
}

func TestMapRunsAll(t *testing.T) {
	var n atomic.Int64
	if _, err := Map(4, 257, func(i int) (struct{}, error) {
		n.Add(1)
		return struct{}{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 257 {
		t.Fatalf("ran %d tasks, want 257", n.Load())
	}
}

func TestMapErrorStopsClaiming(t *testing.T) {
	boom := errors.New("boom")
	var after atomic.Int64
	_, err := Map(2, 1000, func(i int) (struct{}, error) {
		if i == 3 {
			return struct{}{}, boom
		}
		if i > 500 {
			// The failure should stop the sweep long before the tail.
			after.Add(1)
		}
		return struct{}{}, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if after.Load() > 100 {
		t.Fatalf("%d tail tasks ran after the error; claiming did not stop", after.Load())
	}
}

// With two failing tasks Map returns the lower index's error, as a
// sequential loop does, at every worker count — even when the higher index
// fails first in wall-clock order.
func TestMapReturnsLowestIndexError(t *testing.T) {
	low, high := errors.New("low"), errors.New("high")
	for _, workers := range []int{1, 2, 4, 16} {
		for rep := 0; rep < 20; rep++ {
			_, err := Map(workers, 40, func(i int) (int, error) {
				switch i {
				case 7:
					time.Sleep(time.Millisecond)
					return 0, low
				case 9:
					return 0, high
				}
				return i, nil
			})
			if err != low {
				t.Fatalf("workers=%d: err = %v, want %v", workers, err, low)
			}
		}
	}
}

func TestMapErrorDiscardsResults(t *testing.T) {
	out, err := Map(4, 10, func(i int) (int, error) {
		if i == 5 {
			return 0, errors.New("bad")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if out != nil {
		t.Fatalf("out = %v, want nil on error", out)
	}
}

func TestMapPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r != "kaboom" {
					t.Fatalf("workers=%d: recovered %v, want kaboom", workers, r)
				}
			}()
			_, _ = Map(workers, 10, func(i int) (int, error) {
				if i == 2 {
					panic("kaboom")
				}
				return i, nil
			})
			t.Fatalf("workers=%d: no panic reached the caller", workers)
		}()
	}
}

func TestChunks(t *testing.T) {
	cases := []struct {
		n, parts int
	}{{10, 3}, {10, 1}, {3, 3}, {1, 1}, {100, 7}, {3079, 8}}
	for _, c := range cases {
		prevEnd := 0
		for i := 0; i < c.parts; i++ {
			lo, hi := Chunk(c.n, c.parts, i)
			if lo != prevEnd {
				t.Fatalf("n=%d parts=%d: chunk %d [%d,%d) not contiguous", c.n, c.parts, i, lo, hi)
			}
			if size := hi - lo; size != c.n/c.parts && size != c.n/c.parts+1 {
				t.Fatalf("n=%d parts=%d: chunk %d has %d items", c.n, c.parts, i, size)
			}
			prevEnd = hi
		}
		if prevEnd != c.n {
			t.Fatalf("n=%d parts=%d: chunks cover %d items", c.n, c.parts, prevEnd)
		}
	}
}

// Every block of every Run runs exactly once, with several Fans running
// concurrently and nested: more blocks in flight than helpers started by
// any one of them.
func TestFanRunsEveryBlock(t *testing.T) {
	var outer Fan
	var counts [4][5]atomic.Int64
	inner := make([]Fan, 4)
	for rep := 0; rep < 50; rep++ {
		outer.Run(4, func(o int) {
			inner[o].Run(5, func(i int) { counts[o][i].Add(1) })
		})
	}
	for o := range counts {
		for i := range counts[o] {
			if got := counts[o][i].Load(); got != 50 {
				t.Fatalf("block %d/%d ran %d times, want 50", o, i, got)
			}
		}
	}
}

func TestFanPanicPropagates(t *testing.T) {
	var f Fan
	for _, bad := range []int{0, 2} {
		func() {
			defer func() {
				if r := recover(); r != "kaboom" {
					t.Fatalf("block %d: recovered %v, want kaboom", bad, r)
				}
			}()
			f.Run(3, func(i int) {
				if i == bad {
					panic("kaboom")
				}
			})
			t.Fatalf("block %d: no panic reached the caller", bad)
		}()
	}
	// The Fan stays usable after a re-raised panic.
	var ran atomic.Int64
	f.Run(3, func(int) { ran.Add(1) })
	if ran.Load() != 3 {
		t.Fatalf("%d blocks ran after a panic, want 3", ran.Load())
	}
}

func TestFanSteadyStateAllocatesNothing(t *testing.T) {
	var f Fan
	var sum [3]int
	fn := func(i int) { sum[i]++ }
	f.Run(3, fn) // start the helpers
	if allocs := testing.AllocsPerRun(100, func() { f.Run(3, fn) }); allocs != 0 {
		t.Fatalf("steady-state Run allocates %v/op, want 0", allocs)
	}
}

// On a single scheduler thread Run runs the blocks on the caller in index
// order and a panic unwinds straight to it.
func TestFanOneProcRunsInline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var f Fan
	var order []int
	f.Run(5, func(i int) {
		helpers.Lock()
		handedOut := helpers.demand
		helpers.Unlock()
		if handedOut != 0 {
			t.Errorf("block %d: %d blocks handed to helpers", i, handedOut)
		}
		order = append(order, i)
	})
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(order, want) {
		t.Fatalf("ran blocks %v, want %v", order, want)
	}
	func() {
		defer func() {
			if r := recover(); r != "kaboom" {
				t.Fatalf("recovered %v, want kaboom", r)
			}
		}()
		f.Run(3, func(i int) {
			if i == 1 {
				panic("kaboom")
			}
		})
		t.Fatal("no panic reached the caller")
	}()
}
