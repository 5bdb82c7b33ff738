package sharedstate

import (
	"bytes"
	"io"
	"sync"
)

// ---------------------------------------------------------------------
// Interface dispatch: the goroutine reaches tally.bump's bare write only
// through the sink interface, which the call graph resolves to the
// package's implementation, while Add writes under the lock. Without
// the resolved edge bump would look like a main-goroutine function and
// the field would seem unshared.

type sink interface {
	bump()
}

type tally struct {
	mu sync.Mutex
	n  int // want `field sharedstate\.tally\.n is shared across goroutines with inconsistent locksets: guarded by sharedstate\.tally\.mu at .*\(Add\) but bare at .*\(bump\)`
}

func (t *tally) bump() {
	t.n++
}

func (t *tally) Add() {
	t.mu.Lock()
	t.n++
	t.mu.Unlock()
}

func Pump(s sink, done chan struct{}) {
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			s.bump()
		}
	}()
}

// ---------------------------------------------------------------------
// Silent: a call through a standard-library interface. io.Writer's
// implementations (*bytes.Buffer here) are outside the module, so the
// call adds no edge, and the goroutine touches no field of this package.

func Emit(w io.Writer, done chan struct{}) {
	go func() {
		<-done
		_, _ = w.Write([]byte("done"))
	}()
}

func EmitBuffered(done chan struct{}) *bytes.Buffer {
	var b bytes.Buffer
	Emit(&b, done)
	return &b
}
