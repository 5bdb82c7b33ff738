// Package worker is a second dependent of lib writing lib.Store.Val from
// a goroutine. It and app are analyzed in parallel in the reverse wave,
// and both merge their access sites into the field's one fact, so the
// final fact-debug dump must not depend on which merge ran first.
package worker

import "sharedstate/lib"

// Start bumps the field bare on a goroutine that stops when done closes.
func Start(s *lib.Store, done chan struct{}) {
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			s.Val += 2
		}
	}()
}
