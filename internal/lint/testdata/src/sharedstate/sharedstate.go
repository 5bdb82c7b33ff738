// Package sharedstate pins the lockset analyzer: a field guarded on one
// path and bare on another, a field guarded by disjoint locks, a field
// mixing atomic and plain access, a loop-spawned worker pool racing
// itself — and the silences: consistent guarding, single-goroutine
// fields, pre-spawn initialization, constructor locals, and *Locked
// helpers whose caller holds the guard.
package sharedstate

import (
	"sync"
	"sync/atomic"
	"time"
)

// ---------------------------------------------------------------------
// guarded+bare: the background literal locks, the exported reader does
// not — the lock protects nothing. One finding, at the field.

type counter struct {
	mu sync.Mutex
	n  int // want `field sharedstate\.counter\.n is shared across goroutines with inconsistent locksets: guarded by .* but bare`
}

func (c *counter) Run(done chan struct{}) {
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			c.mu.Lock()
			c.n++
			c.mu.Unlock()
		}
	}()
}

func (c *counter) Read() int {
	return c.n
}

// ---------------------------------------------------------------------
// disjoint-locks: writer holds wmu, reader holds rmu — the locksets
// never intersect, so the two goroutines are unordered.

type split struct {
	wmu sync.Mutex
	rmu sync.Mutex
	v   int // want `field sharedstate\.split\.v is shared across goroutines with inconsistent locksets: guarded by disjoint locks`
}

func (s *split) Start(stop chan struct{}) {
	go s.writeLoop(stop)
}

func (s *split) writeLoop(stop chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		s.wmu.Lock()
		s.v++
		s.wmu.Unlock()
	}
}

func (s *split) Load() int {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	return s.v
}

// ---------------------------------------------------------------------
// atomic+plain: the goroutine publishes with atomic.StoreInt64, the
// reader loads bare — the plain half breaks the atomic half's promise.

type signal struct {
	flag int64 // want `field sharedstate\.signal\.flag is shared across goroutines with inconsistent locksets: atomic at .* but plain at`
}

func (g *signal) Arm(done chan struct{}) {
	go func() {
		<-done
		atomic.StoreInt64(&g.flag, 1)
	}()
}

func (g *signal) Armed() bool {
	return g.flag == 1
}

// ---------------------------------------------------------------------
// multi-instance: one spawn site inside a loop mints many goroutines
// that race each other — the field is shared even though every access
// sits in a single spawn context. Bare writes in the pool, guarded read
// outside: guarded+bare.

type pool struct {
	mu   sync.Mutex
	hits int // want `field sharedstate\.pool\.hits is shared across goroutines with inconsistent locksets`
}

func (p *pool) Spin(n int, wg *sync.WaitGroup) {
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			p.hits++
		}()
	}
}

func (p *pool) Hits() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits
}

// ---------------------------------------------------------------------
// Silent: every access under the same mutex, including through a
// *Locked helper (the caller holds the guard).

type safe struct {
	mu sync.Mutex
	n  int
}

func (s *safe) Start(done chan struct{}) {
	go s.work(done)
}

func (s *safe) work(done chan struct{}) {
	for {
		select {
		case <-done:
			return
		default:
		}
		s.mu.Lock()
		s.bumpLocked()
		s.mu.Unlock()
	}
}

func (s *safe) bumpLocked() {
	s.n++
}

func (s *safe) Get() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// ---------------------------------------------------------------------
// Silent: the field is touched by exactly one goroutine (the spawned
// literal owns it; everyone else talks to it over the channel). The
// standard-library field the literal reads (time.Ticker.C) gets no
// access-site fact: no pass analyzes its package.

type owner struct {
	out  chan int
	cur  int
	tick *time.Ticker
}

func (o *owner) Start(done chan struct{}) {
	go func() {
		for {
			select {
			case <-done:
				return
			case <-o.tick.C:
			default:
			}
			o.cur++
			o.out <- o.cur
		}
	}()
}

// ---------------------------------------------------------------------
// Silent: pre-spawn initialization happens-before everything the
// spawned goroutine does; the remaining accesses agree on the mutex.

type warm struct {
	mu    sync.Mutex
	state int
}

func (w *warm) Start(done chan struct{}) {
	w.state = 1 // before the spawn: ordered, not a lockset hole
	go w.run(done)
}

func (w *warm) run(done chan struct{}) {
	for {
		select {
		case <-done:
			return
		default:
		}
		w.mu.Lock()
		w.state++
		w.mu.Unlock()
	}
}

func (w *warm) State() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state
}

// ---------------------------------------------------------------------
// Silent: a freshly constructed value is not shared yet; the bare
// writes in the constructor never race the guarded accesses later.

func NewSafe(seed int) *safe {
	s := &safe{}
	s.n = seed
	return s
}
