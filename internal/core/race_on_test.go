//go:build race

package core

// Under the race detector sync.Pool deliberately drops a fraction of
// Puts, so pooled scan scratch cannot reach its steady-state
// allocation count there.
const raceEnabled = true
