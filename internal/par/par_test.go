package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

var procs = []int{1, 2, 3, 8}

// Each runs every index exactly once, on worker numbers below Workers(n),
// for job counts below, at and above the worker count.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, k := range procs {
		runtime.GOMAXPROCS(k)
		for _, n := range []int{0, 1, 2, 7, 100} {
			runs := make([]atomic.Int32, n)
			var badWorker atomic.Bool
			Each(n, func(w, i int) {
				if w < 0 || w >= Workers(n) {
					badWorker.Store(true)
				}
				runs[i].Add(1)
			})
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("GOMAXPROCS %d, n %d: index %d ran %d times", k, n, i, got)
				}
			}
			if badWorker.Load() {
				t.Fatalf("GOMAXPROCS %d, n %d: worker number outside [0, %d)", k, n, Workers(n))
			}
		}
	}
}

// A job sees what feed wrote before submitting it, and Stream returns
// only after every submitted job has run.
func TestStreamSeesFedData(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, k := range procs {
		runtime.GOMAXPROCS(k)
		const n = 50
		in, out := make([]int, n), make([]int, n)
		Stream(n, func(submit func(i int)) {
			for i := range in {
				in[i] = i * i
				submit(i)
			}
		}, func(_, i int) { out[i] = in[i] + 1 })
		for i, v := range out {
			if v != i*i+1 {
				t.Fatalf("GOMAXPROCS %d: job %d wrote %d, want %d", k, i, v, i*i+1)
			}
		}
	}
}

var errJob = errors.New("job failed")

// A panic in a job reaches the caller with the value of the lowest index
// that panicked, an error keeping its chain, after every job has run.
func TestStreamRaisesLowestPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, k := range procs {
		runtime.GOMAXPROCS(k)
		const n = 40
		var ran atomic.Int32
		r := func() (r any) {
			defer func() { r = recover() }()
			Each(n, func(_, i int) {
				ran.Add(1)
				if i%7 == 3 {
					panic(fmt.Errorf("job %d: %w", i, errJob))
				}
			})
			return nil
		}()
		err, ok := r.(error)
		if !ok || !errors.Is(err, errJob) || err.Error() != "job 3: job failed" {
			t.Fatalf("GOMAXPROCS %d: recovered %v, want job 3's error", k, r)
		}
		if got := ran.Load(); got != n {
			t.Fatalf("GOMAXPROCS %d: %d of %d jobs ran", k, got, n)
		}
	}
}

// A panic in feed goes on after the jobs submitted before it have run.
func TestStreamFeedPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, k := range procs {
		runtime.GOMAXPROCS(k)
		var ran atomic.Int32
		r := func() (r any) {
			defer func() { r = recover() }()
			Stream(10, func(submit func(i int)) {
				for i := range 4 {
					submit(i)
				}
				panic("feed")
			}, func(_, _ int) { ran.Add(1) })
			return nil
		}()
		if r != "feed" || ran.Load() != 4 {
			t.Fatalf("GOMAXPROCS %d: recovered %v after %d jobs, want feed's panic after 4", k, r, ran.Load())
		}
	}
}
