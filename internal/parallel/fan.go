package parallel

import (
	"runtime"
	"sync"
)

// Fan runs the blocks of a fan-out on parked helper goroutines, so a
// steady-state Run allocates nothing — the engine's phases and the decide
// repeat theirs every slot or minute. The zero value is ready to use. A Fan
// serves one Run at a time and must not be copied after first use.
type Fan struct {
	wg       sync.WaitGroup
	mu       sync.Mutex
	panicked bool
	panicVal any
}

// fanTask is one block of a Run, handed to a helper.
type fanTask struct {
	f  *Fan
	fn func(i int)
	i  int
}

// helpers counts the process's fan-out goroutines, parked on fanTasks
// between Runs. Run keeps started at least demand, the blocks every Run in
// flight hands out, so a handed-out block never waits for a helper that is
// itself waiting on one. Helpers start on first need and never exit: like
// the runtime's own threads they are process-wide, and their number is the
// peak count of blocks in flight at once.
var helpers struct {
	sync.Mutex
	started, demand int
}

var fanTasks = make(chan fanTask)

// helper runs handed-out blocks forever.
func helper() {
	for t := range fanTasks {
		t.f.call(t.fn, t.i)
		t.f.wg.Done()
	}
}

// Run calls fn(i) for every i in [0, n) concurrently and returns when all
// have returned: fn(0) on the calling goroutine, the others on helpers. A
// panic in any block is re-raised on the caller once every block has
// finished. With n <= 1, or when the runtime has a single scheduler thread
// (where a fan-out is pure barrier overhead), the blocks run inline on the
// caller in index order, and a panic unwinds from the block that raised it.
func (f *Fan) Run(n int, fn func(i int)) {
	if n <= 1 || runtime.GOMAXPROCS(0) == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	helpers.Lock()
	helpers.demand += n - 1
	spawn := helpers.demand - helpers.started
	helpers.started = max(helpers.started, helpers.demand)
	helpers.Unlock()
	for ; spawn > 0; spawn-- {
		go helper()
	}
	f.wg.Add(n - 1)
	for i := 1; i < n; i++ {
		fanTasks <- fanTask{f, fn, i}
	}
	// The last helper woken waits in this scheduler thread's next-to-run
	// slot, which an idle thread steals only after a back-off of tens of
	// microseconds. Yielding runs it here at once and lets an idle thread
	// pick the caller up from the global run queue instead.
	runtime.Gosched()
	f.call(fn, 0)
	f.wg.Wait()
	helpers.Lock()
	helpers.demand -= n - 1
	helpers.Unlock()
	if f.panicked {
		v := f.panicVal
		f.panicked, f.panicVal = false, nil
		panic(v)
	}
}

// call runs fn(i), recording the first panic instead of unwinding.
func (f *Fan) call(fn func(i int), i int) {
	defer func() {
		if r := recover(); r != nil {
			f.mu.Lock()
			if !f.panicked {
				f.panicked, f.panicVal = true, r
			}
			f.mu.Unlock()
		}
	}()
	fn(i)
}
