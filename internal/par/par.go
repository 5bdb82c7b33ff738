// Package par runs independent jobs of one synthesis phase on every core:
// the hop table's block searches, the start partitions' counting and the
// audit's fresh module evaluations. A job is named by its index and writes
// only what that index owns, so which goroutine runs it, and when, cannot
// change a result; callers that merge per-job output do so in index order
// after the jobs have joined.
//
// The calling goroutine is one of the workers, as in the optimizer's
// evaluation pool: Stream starts min(GOMAXPROCS, n)−1 helpers, and the
// caller takes the jobs they have not taken once it has submitted them
// all. On one core no goroutine is started.
package par

import (
	"runtime"
	"sync"
)

// Workers returns how many goroutines Each and Stream run n jobs on,
// the caller included: min(GOMAXPROCS, n), at least 1. The worker numbers
// passed to a job are below it, so callers size per-worker scratch by it.
func Workers(n int) int { return max(1, min(runtime.GOMAXPROCS(0), n)) }

// Each calls do(w, i) for every i in [0, n) and returns when all calls
// have; w is the number of the worker making the call.
func Each(n int, do func(w, i int)) {
	Stream(n, func(submit func(i int)) {
		for i := range n {
			submit(i)
		}
	}, do)
}

// Stream calls feed on the calling goroutine, which submits up to n job
// indices, each at most once, and calls do(w, i) for every submitted i as
// soon as a worker is free; w is the number of the worker making the
// call. Whatever feed writes before submit(i) is visible to do(w, i).
// Stream returns when feed and every call of do have.
//
// A panic in do does not cross goroutines unrecovered: every submitted
// job still runs, and then the panic of the lowest index that panicked is
// raised again on the caller with its value intact, so a recover there
// sees the same value (an error that the estimator's numeric guards raise
// keeps its chain for errors.Is). A panic in feed goes on once the jobs
// submitted before it have run.
func Stream(n int, feed func(submit func(i int)), do func(w, i int)) {
	if n <= 0 {
		return
	}
	var f failure
	jobs := make(chan int, n)
	var helpers sync.WaitGroup
	workers := Workers(n)
	helpers.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer helpers.Done()
			for i := range jobs {
				f.run(do, w, i)
			}
		}()
	}
	defer func() {
		// The caller drains the queue and joins the helpers, also when
		// feed panics, so no job outlives the call.
		close(jobs)
		for i := range jobs {
			f.run(do, 0, i)
		}
		helpers.Wait()
		f.mustNotHaveFailed()
	}()
	feed(func(i int) { jobs <- i })
}

// failure keeps the panic of the lowest job index that panicked.
type failure struct {
	mu    sync.Mutex
	index int // guarded by mu; the job's index + 1, 0 while none panicked
	value any // guarded by mu; its panic value
}

// run calls do(w, i) and records its panic, if any.
func (f *failure) run(do func(w, i int), w, i int) {
	defer func() {
		if r := recover(); r != nil {
			f.mu.Lock()
			if f.index == 0 || i+1 < f.index {
				f.index, f.value = i+1, r
			}
			f.mu.Unlock()
		}
	}()
	do(w, i)
}

// mustNotHaveFailed raises the recorded panic again on the calling
// goroutine.
func (f *failure) mustNotHaveFailed() {
	f.mu.Lock()
	index, value := f.index, f.value
	f.mu.Unlock()
	if index != 0 {
		panic(value)
	}
}
