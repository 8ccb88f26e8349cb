package sim

import (
	"context"
	"runtime"
	"testing"

	"helixrc/internal/hcc"
	"helixrc/internal/workloads"
)

// runBoth runs the same simulation on the default record-then-replay
// path and the retained reference stepper and asserts bit-identical
// Results — every cycle count, overhead category, ring statistic and
// memory statistic.
func runBoth(t *testing.T, name string, build func(arch Config) (*Result, error)) {
	t.Helper()
	fast, err := build(Config{})
	if err != nil {
		t.Fatalf("%s: fast: %v", name, err)
	}
	slow, err := build(Config{SlowStep: true})
	if err != nil {
		t.Fatalf("%s: slow: %v", name, err)
	}
	if *fast != *slow {
		t.Errorf("%s: Run and the reference stepper diverge:\nrun:  %+v\nslow: %+v", name, fast, slow)
	}
	if fast.Cycles != slow.Cycles {
		t.Errorf("%s: Cycles %d != %d", name, fast.Cycles, slow.Cycles)
	}
}

// withSlow copies arch with the SlowStep flag from sel.
func withSlow(arch, sel Config) Config {
	arch.SlowStep = sel.SlowStep
	return arch
}

func TestFastMatchesSlowGolden(t *testing.T) {
	// Synthetic kernels across every machine flavor.
	pm, fm := buildMixed(t, 600)
	compM := compileFor(t, pm, fm, hcc.V3, 600)
	pc, fc := buildChase(t, 500)
	compC, err := hcc.Compile(pc, fc, hcc.Options{Level: hcc.V3, Cores: 16, MinSpeedup: 1.0})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		run  func(sel Config) (*Result, error)
	}{
		{"mixed/helixrc", func(sel Config) (*Result, error) {
			return Run(context.Background(), pm, compM, fm, withSlow(HelixRC(16), sel), 600)
		}},
		{"mixed/conventional", func(sel Config) (*Result, error) {
			return Run(context.Background(), pm, compM, fm, withSlow(Conventional(16), sel), 600)
		}},
		{"mixed/abstract", func(sel Config) (*Result, error) {
			return Run(context.Background(), pm, compM, fm, withSlow(Abstract(16), sel), 600)
		}},
		{"mixed/baseline", func(sel Config) (*Result, error) {
			return Run(context.Background(), pm, nil, fm, withSlow(Conventional(16), sel), 600)
		}},
		{"chase/helixrc", func(sel Config) (*Result, error) {
			return Run(context.Background(), pc, compC, fc, withSlow(HelixRC(16), sel))
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			runBoth(t, tc.name, func(sel Config) (*Result, error) { return tc.run(sel) })
		})
	}
}

// TestFastMatchesSlowWorkload pins the equality on a real benchmark
// analogue end to end (compile once, simulate both ways).
func TestFastMatchesSlowWorkload(t *testing.T) {
	w, err := workloads.Get("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := hcc.Compile(w.Prog, w.Entry, hcc.Options{Level: hcc.V3, Cores: 16, TrainArgs: w.TrainArgs})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		arch Config
	}{
		{"helixrc", HelixRC(16)},
		{"conventional", Conventional(16)},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			runBoth(t, cfg.name, func(sel Config) (*Result, error) {
				return Run(context.Background(), w.Prog, comp, w.Entry, withSlow(cfg.arch, sel), w.RefArgs...)
			})
		})
	}
}

// BenchmarkSimHotLoop measures sim.Run on a small INT workload at 16
// cores — the default path: functional recording, then replay.
func BenchmarkSimHotLoop(b *testing.B) {
	benchmarkHotLoop(b, Config{})
}

// BenchmarkSimHotLoopSlow is the same workload on the retained
// reference stepper, for before/after comparison.
func BenchmarkSimHotLoopSlow(b *testing.B) {
	benchmarkHotLoop(b, Config{SlowStep: true})
}

func benchmarkHotLoop(b *testing.B, sel Config) {
	w, err := workloads.Get("181.mcf")
	if err != nil {
		b.Fatal(err)
	}
	comp, err := hcc.Compile(w.Prog, w.Entry, hcc.Options{Level: hcc.V3, Cores: 16, TrainArgs: w.TrainArgs})
	if err != nil {
		b.Fatal(err)
	}
	arch := HelixRC(16)
	arch.SlowStep = sel.SlowStep
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), w.Prog, comp, w.Entry, arch, w.RefArgs...)
		if err != nil {
			b.Fatal(err)
		}
		if res.Cycles == 0 {
			b.Fatal("zero cycles")
		}
	}
}

// TestHeldResultsRetainLittle: a Result is a plain value. Holding many
// of them (as the harness caches do, charging 1 KiB each) must not keep
// the simulator's memory image, hierarchy or recorder alive.
func TestHeldResultsRetainLittle(t *testing.T) {
	w, err := workloads.Get("181.mcf")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := hcc.Compile(w.Prog, w.Entry, hcc.Options{Level: hcc.V3, Cores: 16, TrainArgs: w.TrainArgs})
	if err != nil {
		t.Fatal(err)
	}
	liveHeap := func() uint64 {
		// Two collections also empty the sync.Pools (and their victim
		// caches) that replay state is parked in.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const n = 4
	const perResult = 64 << 10
	for _, sel := range []Config{{}, {SlowStep: true}} {
		arch := withSlow(HelixRC(16), sel)
		held := make([]*Result, 0, n)
		before := liveHeap()
		for i := 0; i < n; i++ {
			res, err := Run(context.Background(), w.Prog, comp, w.Entry, arch, w.TrainArgs...)
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, res)
		}
		after := liveHeap()
		runtime.KeepAlive(held)
		if after > before && (after-before)/n >= perResult {
			t.Errorf("SlowStep=%v: each held Result retains %d KiB, want < %d KiB",
				sel.SlowStep, (after-before)/n>>10, perResult>>10)
		}
	}
}
