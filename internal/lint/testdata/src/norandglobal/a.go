// Package norandglobal is the golden input for determtaint's file-level
// checks: the package is outside the seeded optimizer path, and the
// global-stream and seed rules hold in it all the same.
package norandglobal

import (
	mrand "math/rand"
	rand2 "math/rand/v2"
	"os"
	"time"
)

// Bad: top-level functions draw from the process-global stream.
func globals() int {
	mrand.Seed(42)                      // want `process-global math/rand`
	x := mrand.Intn(6)                  // want `process-global math/rand`
	y := mrand.Float64()                // want `process-global math/rand`
	mrand.Shuffle(3, func(i, j int) {}) // want `process-global math/rand`
	z := rand2.Int64()                  // want `math/rand/v2\.Int64 draws from the process-global math/rand stream`
	return x + int(y) + int(z)
}

// Bad: wall-clock and process-identity seeds are not reproducible.
func wallClock() *mrand.Rand {
	src := mrand.NewSource(time.Now().UnixNano()) // want `not reproducible`
	_ = mrand.NewSource(int64(os.Getpid()))       // want `not reproducible`
	return mrand.New(src)
}

// Good: an explicitly seeded source, and drawing from an injected stream.
func seeded(seed int64) *mrand.Rand {
	return mrand.New(mrand.NewSource(seed))
}

func injected(rng *mrand.Rand) int {
	return rng.Intn(6) // methods on an injected *rand.Rand are the policy
}
