//go:build race

package hcc_test

// raceEnabled reports whether the race detector is compiled in:
// allocation budgets skip under it, because race instrumentation
// allocates on its own.
const raceEnabled = true
