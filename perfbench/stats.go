package main

import (
	"math/rand"
	"sort"
	"sync"
)

// percentile returns the nearest-rank percentile pm/1000 of samples (pm in
// per mille: 500 is the median, 990 the p99). It sorts samples in place and
// returns a measured value, never an interpolation.
func percentile(samples []float64, pm int) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	rank := (pm*len(samples) + 999) / 1000 // ceil(pm/1000 · n)
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1]
}

// beyond counts the samples above the pm-per-mille percentile of n samples.
func beyond(n, pm int) int { return n * (1000 - pm) / 1000 }

// tailPM is the percentile rule for reporting tails: the highest of p99.9,
// p99, p90, p75 and p50 that leaves at least ten samples beyond it, or 0
// when even the median has fewer than ten samples above it.
func tailPM(n int) int {
	for _, pm := range []int{999, 990, 900, 750, 500} {
		if beyond(n, pm) >= 10 {
			return pm
		}
	}
	return 0
}

// median returns the nearest-rank median of xs without reordering them.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 500)
}

// cycler hands out the ops of a run pass by pass. A pass is one seeded
// permutation of the workload's n inputs; the run stops only at a pass
// boundary, once at least minPasses passes are done and stop reports true,
// so every run covers its inputs a whole number of times and has the same
// mix. It is safe for concurrent callers.
type cycler struct {
	mu        sync.Mutex
	n         int
	minPasses int
	stop      func() bool
	rng       *rand.Rand
	perm      []int
	pos       int
	passes    int
}

func newCycler(n, minPasses int, seed int64, stop func() bool) *cycler {
	return &cycler{n: n, minPasses: minPasses, stop: stop, rng: rand.New(rand.NewSource(seed))}
}

// next returns the next op as (pass, input index); ok is false once the
// run is over. Passes count from 0.
func (c *cycler) next() (pass, idx int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pos == len(c.perm) {
		if c.passes >= c.minPasses && c.stop() {
			return 0, 0, false
		}
		c.perm = c.rng.Perm(c.n)
		c.pos = 0
		c.passes++
	}
	c.pos++
	return c.passes - 1, c.perm[c.pos-1], true
}

// done reports how many passes were started.
func (c *cycler) done() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.passes
}
