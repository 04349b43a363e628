package encode

import "time"

// SetOverlapDelay sets how long the first orientation of an LM call runs
// alone before the second may start beside it, and returns a function
// that restores the delay. It exists for tests only.
func SetOverlapDelay(d time.Duration) (restore func()) {
	old := overlapAfter
	overlapAfter = d
	return func() { overlapAfter = old }
}

// ReusedSolvers returns how many engines so far took a solver a released
// pool handed back. It exists for tests only.
func ReusedSolvers() int64 { return reusedSolvers.Load() }
