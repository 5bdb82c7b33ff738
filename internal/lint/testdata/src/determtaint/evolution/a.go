// Package evolution is the determtaint golden package: its base name puts
// every function on the seeded optimizer path. It plants the two bugs the
// analyzer exists to catch — a wall-clock read inside a cost function and
// a map iteration serialized into checkpoint bytes — next to the
// legitimate patterns that must stay silent.
package evolution

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"clocksrc"
	"obs"
)

// costOf is planted bug #1: a cost function sampling the wall clock.
func costOf(widths []float64) float64 {
	base := 0.0
	for _, w := range widths {
		base += w
	}
	return base + float64(time.Now().UnixNano()%3) // want `time\.Now.*seeded optimizer path`
}

// encodeModules is planted bug #2: map iteration order baked into
// checkpoint bytes through a serializer.
func encodeModules(mods map[int][]int) []byte {
	var buf bytes.Buffer
	for id, gates := range mods {
		fmt.Fprintf(&buf, "%d:%d\n", id, len(gates)) // want `map iteration order.*serializes`
	}
	return buf.Bytes()
}

// moduleIDs accumulates map order into a slice and never sorts it.
func moduleIDs(mods map[int][]int) []int {
	var ids []int
	for id := range mods { // want `"ids" accumulates it and is never sorted`
		ids = append(ids, id)
	}
	return ids
}

// statuses is the regression shape that once livelocked the fixpoint: a
// never-sorted map-order accumulator (ids), plus a second slice derived
// from it whose later sort cleansed the derived taint every round while
// the derivation re-added it. The derived, sorted slice must stay
// silent; the accumulator itself still reports.
func statuses(mods map[int][]int) []int {
	ids := make([]*int, 0, len(mods))
	for id := range mods { // want `"ids" accumulates it and is never sorted`
		id := id
		ids = append(ids, &id)
	}
	out := make([]int, 0, len(ids))
	for _, p := range ids {
		out = append(out, *p)
	}
	sort.Ints(out)
	return out
}

// sortedModuleIDs is the fix idiom and must stay silent.
func sortedModuleIDs(mods map[int][]int) []int {
	ids := make([]int, 0, len(mods))
	for id := range mods {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// stepTimed is the blessed observation pattern: the wall-clock value is
// consumed only by the obs package.
func stepTimed(h *obs.Histogram) {
	t0 := time.Now()
	h.ObserveSince(t0)
}

// sinceObserved: tainted local consumed exclusively by observation.
func sinceObserved(h *obs.Histogram, start time.Time) {
	elapsed := time.Since(start)
	h.Observe(elapsed.Seconds())
}

// seedFromClock launders the clock through a local before returning it.
func seedFromClock() int64 {
	t0 := time.Now()
	return t0.UnixNano() // want `"t0" carries a nondeterministic value \(time\.Now`
}

// mutateRate consumes a same-package tainted function.
func mutateRate() float64 {
	return float64(seedFromClock()%100) / 100 // want `via seedFromClock`
}

// seedPopulation consumes a tainted function from another package: the
// fact crossed the package boundary in dependency order.
func seedPopulation() int64 {
	return clocksrc.Stamp() // want `time\.Now \(via clocksrc\.Stamp\)`
}

// runTag mixes in process identity.
func runTag() string {
	return fmt.Sprintf("run-%d", os.Getpid()) // want `os\.Getpid`
}

// chainedSeed consumes a fact that propagated through an intra-package
// chain in the dependency before being exported.
func chainedSeed() int64 {
	return clocksrc.Chained2() // want `via clocksrc\.Chained2`
}

// rollDie draws from the global stream on the seeded path: the call is
// reported once, by the file-level global-stream check; the flow check
// does not repeat it.
func rollDie() int {
	return rand.Intn(6) // want `^math/rand\.Intn draws from the process-global math/rand stream`
}

// clockSeeded seeds a stream from the wall clock on the seeded path:
// reported once, by the file-level seed check, not again where the
// clock value flows.
func clockSeeded() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `^rand source seeded from time\.Now is not reproducible`
}

// fixedSeed consumes the dependency's deterministic function: silent.
func fixedSeed() int64 {
	return clocksrc.Fixed()
}

// startObserved consumes a wall-clock value produced by the observation
// package: exempt by provenance.
func startObserved(l *obs.Logger) {
	l.Info("started", "at", obs.StartedAt())
}

type state struct {
	seed int64
	gen  int
}

// stamp stores the clock into escaping memory (void function: the taint
// fact is on the write, not a result).
func (s *state) stamp() {
	s.seed = time.Now().UnixNano() // want `time\.Now`
}

// refresh calls the tainted void method.
func (s *state) refresh() {
	s.stamp() // want `via stamp`
}

// advance is plain deterministic state mutation: silent.
func (s *state) advance() {
	s.gen++
}
