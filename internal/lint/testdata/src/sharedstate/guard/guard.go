// Package guard pins sharedstate's `// guarded by mu` annotation check.
package guard

import "sync"

type counter struct {
	mu        sync.Mutex
	n         int // guarded by mu
	last      int // guarded by mu
	unguarded int
}

func (c *counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	c.last = c.n
}

func (c *counter) Bad() int {
	return c.n // want `"n" is guarded by "mu"`
}

func (c *counter) BadWrite(v int) {
	c.last = v // want `"last" is guarded by "mu"`
}

// readLocked follows the caller-holds-the-lock naming convention.
func (c *counter) readLocked() int {
	return c.n
}

func (c *counter) Free() int {
	return c.unguarded
}

// newCounter touches guarded fields of a value it just built: fine.
func newCounter() *counter {
	c := &counter{}
	c.n = 1
	return c
}

// gauge holds the read lock — RLock counts.
type gauge struct {
	mu sync.RWMutex
	v  float64 // guarded by mu
}

func (g *gauge) Load() float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.v
}

func (g *gauge) LoadBad() float64 {
	return g.v // want `"v" is guarded by "mu"`
}

var regMu sync.Mutex

// registry of named counters. guarded by regMu
var registry = map[string]*counter{}

func register(name string, c *counter) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[name] = c
}

func lookupBad(name string) *counter {
	return registry[name] // want `"registry" is guarded by "regMu"`
}

func ignoredLookup(name string) *counter {
	//lint:ignore sharedstate snapshot read is racy by design here
	return registry[name]
}

// ReadAfterUnlock locked mu earlier, but the read comes after the
// Unlock: the lockset is flow-sensitive, so the read is bare.
func (c *counter) ReadAfterUnlock() int {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	return c.n // want `"n" is guarded by "mu"`
}

// DeferredUnlock keeps mu held to the function's end, past a branch.
func (c *counter) DeferredUnlock() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n > 0 {
		c.last = c.n
	}
	return c.last
}

// EarlyReturn releases mu only on the path that leaves the function.
func (c *counter) EarlyReturn(bad bool) {
	c.mu.Lock()
	if bad {
		c.mu.Unlock()
		return
	}
	c.n++
	c.mu.Unlock()
}

// ClosureUnderLock defines and calls its callback with mu held.
func (c *counter) ClosureUnderLock() {
	c.mu.Lock()
	defer c.mu.Unlock()
	bump := func() { c.n++ }
	bump()
}

// DeferredClosureBare writes n in a deferred literal that runs after
// the Unlock: a called literal's body is walked in place.
func (c *counter) DeferredClosureBare() {
	defer func() {
		c.n = 0 // want `"n" is guarded by "mu"`
	}()
	c.mu.Lock()
	c.mu.Unlock()
}

// CalledClosureLocks takes mu inside a literal it calls at once.
func (c *counter) CalledClosureLocks() {
	func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.n++
	}()
}
