// Package lockorder pins the lock-order-cycle analyzer: a direct two-lock
// inversion, a cycle formed through a call (one function's acquisition
// summary extending another's held set), a consistent nesting that must
// stay silent, and structural self-edges that are exempt. The held set
// is flow-sensitive: a lock released on an early-exit arm is still held
// after it, and a spawned goroutine starts with nothing held.
package lockorder

import (
	"errors"
	"sync"
)

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }
type C struct{ mu sync.Mutex }
type D struct{ mu sync.Mutex }
type E struct{ mu sync.Mutex }

var (
	a A
	b B
	c C
	d D
	e E
)

// lockAB nests b.mu under a.mu; lockBA nests them the other way around.
// Both acquisition sites lie on the cycle and both are reported.
func lockAB() {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want `lock order cycle`
	b.mu.Unlock()
}

func lockBA() {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock() // want `lock order cycle`
	a.mu.Unlock()
}

// lockAC nests c.mu under a.mu through a call; nobody nests a.mu under
// c.mu, so the edge is acyclic and silent.
func lockAC() {
	a.mu.Lock()
	defer a.mu.Unlock()
	lockC()
}

func lockC() {
	c.mu.Lock()
	defer c.mu.Unlock()
}

// lockDThenE forms its half of a cycle through grabE's acquisition
// summary; the report lands on the call that extends the held set.
func lockDThenE() {
	d.mu.Lock()
	defer d.mu.Unlock()
	grabE() // want `lock order cycle`
}

func grabE() {
	e.mu.Lock()
	e.mu.Unlock()
}

func lockEThenD() {
	e.mu.Lock()
	defer e.mu.Unlock()
	d.mu.Lock() // want `lock order cycle`
	d.mu.Unlock()
}

// handOverHand re-acquires the same structural mutex (two instances of
// one type): a self-edge, exempt by design.
func handOverHand(x, y *A) {
	x.mu.Lock()
	y.mu.Lock()
	x.mu.Unlock()
	y.mu.Unlock()
}

// sequential acquires in strict sequence, never nested: no edges at all.
func sequential() {
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

type P struct{ mu sync.Mutex }
type Q struct{ mu sync.Mutex }
type R struct{ mu sync.Mutex }
type S struct{ mu sync.Mutex }
type T struct{ mu sync.Mutex }
type U struct{ mu sync.Mutex }
type V struct{ mu sync.Mutex }
type W struct{ mu sync.Mutex }

var (
	p P
	q Q
	r R
	s S
	t T
	u U
	v V
	w W
)

var errBad = errors.New("bad")

// pThenQ releases p.mu only on the early-exit arm: q.mu is acquired with
// p.mu still held, and qThenP nests them the other way around.
func pThenQ(bad bool) error {
	p.mu.Lock()
	if bad {
		p.mu.Unlock()
		return errBad
	}
	q.mu.Lock() // want `lock order cycle`
	q.mu.Unlock()
	p.mu.Unlock()
	return nil
}

func qThenP() {
	q.mu.Lock()
	defer q.mu.Unlock()
	p.mu.Lock() // want `lock order cycle`
	p.mu.Unlock()
}

// spawnUnderR holds r.mu while spawning a goroutine that takes s.mu, and
// spawnUnderT holds t.mu while spawning lockU. The spawned goroutines
// never hold the spawner's lock, so sThenR and uThenT close no cycle.
func spawnUnderR() {
	r.mu.Lock()
	defer r.mu.Unlock()
	go func() {
		s.mu.Lock()
		s.mu.Unlock()
	}()
}

func sThenR() {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.mu.Lock()
	r.mu.Unlock()
}

func spawnUnderT() {
	t.mu.Lock()
	defer t.mu.Unlock()
	go lockU()
}

func lockU() {
	u.mu.Lock()
	u.mu.Unlock()
}

func uThenT() {
	u.mu.Lock()
	defer u.mu.Unlock()
	t.mu.Lock()
	t.mu.Unlock()
}

// spawnW's goroutine takes w.mu, which is not spawnW's own acquisition:
// calling it under v.mu forms no v→w edge against wThenV's w→v. Locks
// taken inside the goroutine still order each other: its v→w nesting
// and wThenV's w→v are a cycle.
func spawnW() {
	go func() {
		w.mu.Lock()
		w.mu.Unlock()
	}()
}

func vThenSpawnW() {
	v.mu.Lock()
	defer v.mu.Unlock()
	spawnW()
}

func wThenV() {
	w.mu.Lock()
	defer w.mu.Unlock()
	v.mu.Lock() // want `lock order cycle`
	v.mu.Unlock()
}

func spawnVThenW() {
	go func() {
		v.mu.Lock()
		defer v.mu.Unlock()
		w.mu.Lock() // want `lock order cycle`
		w.mu.Unlock()
	}()
}
