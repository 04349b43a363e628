package encode

import "time"

// SetOverlapDelay sets how long the earliest unsettled attempt of a step
// runs alone before a later attempt may start beside it, and returns a
// function that restores the delay. It exists for tests only.
func SetOverlapDelay(d time.Duration) (restore func()) {
	old := overlapAfter
	overlapAfter = d
	return func() { overlapAfter = old }
}

// ReusedSolvers returns how many engines so far took a solver a released
// pool handed back. It exists for tests only.
func ReusedSolvers() int64 { return reusedSolvers.Load() }
