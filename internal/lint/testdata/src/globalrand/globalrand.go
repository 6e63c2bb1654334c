// Package globalrand exercises the globalrand check: draws from the
// process-global math/rand source are forbidden; threaded seeded
// generators pass.
package globalrand

import (
	"math/rand"
	"time"

	"repro/internal/detrand"
)

func bad() {
	_ = rand.Intn(10)                                   // want `rand\.Intn draws from the process-global source`
	_ = rand.Float64()                                  // want `rand\.Float64 draws from the process-global source`
	rand.Shuffle(3, func(i, j int) {})                  // want `rand\.Shuffle draws from the process-global source`
	_ = rand.New(rand.NewSource(time.Now().UnixNano())) // want `seeded from the wall clock`
}

func good(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	sub := rand.New(rand.NewSource(seed ^ 0x51a7))
	lazy := detrand.New(seed)
	return rng.Float64() + sub.Float64() + lazy.Float64()
}

func goodThreaded(src rand.Source) *rand.Rand {
	return rand.New(src)
}
