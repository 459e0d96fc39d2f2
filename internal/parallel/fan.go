package parallel

import "sync"

// Fan runs the blocks of a fan-out that repeats on a hot path (the decide's
// every slot) on parked helper goroutines, so a steady-state Run allocates
// nothing: ForEach pays a context, its closures and a goroutine per worker
// on every call. The zero value is ready to use. A Fan serves one Run at a
// time and must not be copied after first use.
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
// finished. With n <= 1 it runs inline.
func (f *Fan) Run(n int, fn func(i int)) {
	if n <= 1 {
		if n == 1 {
			fn(0)
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
