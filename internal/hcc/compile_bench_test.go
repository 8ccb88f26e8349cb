package hcc_test

import (
	"testing"

	"helixrc/internal/hcc"
	"helixrc/internal/workloads"
)

// compileSuite builds a fresh copy of the ten SPEC analogues (HCC mutates
// the programs it compiles, so every compilation needs its own).
func compileSuite(tb testing.TB) []*workloads.Workload {
	tb.Helper()
	var ws []*workloads.Workload
	for _, name := range workloads.Names() {
		w, err := workloads.Get(name)
		if err != nil {
			tb.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

func compileAll(tb testing.TB, ws []*workloads.Workload) {
	for _, w := range ws {
		if _, err := hcc.Compile(w.Prog, w.Entry, hcc.Options{Level: hcc.V3, Cores: 16, TrainArgs: w.TrainArgs}); err != nil {
			tb.Fatalf("%s: %v", w.Name, err)
		}
	}
}

// BenchmarkCompile times one HCCv3 compilation (profile, analyses,
// selection, code generation) of each of the ten workloads per op.
// Building the programs is excluded.
func BenchmarkCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ws := compileSuite(b)
		b.StartTimer()
		compileAll(b, ws)
	}
}

// compileAllocBudget bounds allocations for one compilation of the
// suite: the measured count plus ~5%. The analyses keep their
// per-address, per-register and per-site state in dense slices; a
// regression to per-element maps shows up here as a multiple of the
// budget.
const compileAllocBudget = 18600

// TestCompileAllocs pins the allocation count of BenchmarkCompile's op.
func TestCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	const runs = 2
	suites := make([][]*workloads.Workload, runs+1) // AllocsPerRun warms up once
	for i := range suites {
		suites[i] = compileSuite(t)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		compileAll(t, suites[next])
		next++
	})
	t.Logf("compiling the suite allocates %.0f objects", allocs)
	if allocs > compileAllocBudget {
		t.Errorf("compiling the suite allocates %.0f objects, budget %d", allocs, compileAllocBudget)
	}
}
