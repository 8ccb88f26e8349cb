package sim

import (
	"context"
	"errors"
	"testing"

	"helixrc/internal/hcc"
	"helixrc/internal/ir"
)

// mutateBody removes or alters instructions in a compiled body to verify
// the simulator's dynamic enforcement of the compiler guarantees.
func compileMixed(t *testing.T) (*ir.Program, *ir.Function, *hcc.Compiled, *hcc.ParallelLoop) {
	t.Helper()
	p, f := buildMixed(t, 600)
	comp, err := hcc.Compile(p, f, hcc.Options{Level: hcc.V3, Cores: 16, TrainArgs: []int64{600}})
	if err != nil {
		t.Fatal(err)
	}
	var target *hcc.ParallelLoop
	for _, pl := range comp.Loops {
		for _, b := range pl.Body.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == ir.OpWait {
					target = pl
				}
			}
		}
	}
	if target == nil {
		t.Fatal("no loop with waits")
	}
	return p, f, comp, target
}

// TestFaultInjectionMissingWait: deleting a wait must trip the
// shared-access-before-wait check.
func TestFaultInjectionMissingWait(t *testing.T) {
	p, f, comp, pl := compileMixed(t)
	for _, b := range pl.Body.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpWait {
				b.Instrs[i] = ir.NewInstr(ir.OpNop)
			}
		}
	}
	_, err := Run(context.Background(), p, comp, f, HelixRC(16), 600)
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("expected a validation error, got %v", err)
	}
}

// TestFaultInjectionDoubleSignal: duplicating a signal must trip the
// exactly-once check.
func TestFaultInjectionDoubleSignal(t *testing.T) {
	p, f, comp, pl := compileMixed(t)
outer:
	for _, b := range pl.Body.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpSignal {
				dup := b.Instrs[i]
				rest := append([]ir.Instr{dup}, b.Instrs[i:]...)
				b.Instrs = append(b.Instrs[:i:i], rest...)
				break outer
			}
		}
	}
	_, err := Run(context.Background(), p, comp, f, HelixRC(16), 600)
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("expected a validation error, got %v", err)
	}
}

// TestFaultInjectionLeakedSharedAccess: clearing an access's segment tag
// makes it a private access to shared data — the cross-check must fire.
func TestFaultInjectionLeakedSharedAccess(t *testing.T) {
	p, f, comp, pl := compileMixed(t)
	cleared := false
	for _, b := range pl.Body.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpStore && in.SharedSeg >= 0 && !cleared {
				in.SharedSeg = -1
				cleared = true
			}
		}
	}
	if !cleared {
		t.Fatal("no shared store found")
	}
	_, err := Run(context.Background(), p, comp, f, HelixRC(16), 600)
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("expected a validation error, got %v", err)
	}
}

// TestStepBudgetEnforced: a tiny budget aborts cleanly.
func TestStepBudgetEnforced(t *testing.T) {
	p, f := buildMixed(t, 600)
	arch := Conventional(16)
	arch.MaxSteps = 100
	_, err := Run(context.Background(), p, nil, f, arch, 600)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

// TestOoOCoresRunParallelLoops: the out-of-order model must also produce
// exact functional results and a speedup.
func TestOoOCoresRunParallelLoops(t *testing.T) {
	p, f := buildMixed(t, 1000)
	comp, err := hcc.Compile(p, f, hcc.Options{Level: hcc.V3, Cores: 16, TrainArgs: []int64{1000}})
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []func(int) Config{HelixRC} {
		arch := mk(16)
		arch.Core.OoO = true
		arch.Core.Width = 4
		arch.Core.Window = 96
		seq, err := Run(context.Background(), p, nil, f, arch, 1000)
		if err != nil {
			t.Fatal(err)
		}
		par, err := Run(context.Background(), p, comp, f, arch, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if seq.RetValue != par.RetValue {
			t.Fatalf("OoO parallel diverges: %d != %d", par.RetValue, seq.RetValue)
		}
		if Speedup(seq, par) < 1.5 {
			t.Errorf("OoO speedup %.2f too low", Speedup(seq, par))
		}
	}
}

// TestPerfectMemAbstractMachine: the abstract machine must be faster than
// the realistic one and still exact.
func TestPerfectMemAbstractMachine(t *testing.T) {
	p, f := buildMixed(t, 1000)
	comp, err := hcc.Compile(p, f, hcc.Options{Level: hcc.V3, Cores: 16, TrainArgs: []int64{1000}})
	if err != nil {
		t.Fatal(err)
	}
	real, err := Run(context.Background(), p, comp, f, HelixRC(16), 1000)
	if err != nil {
		t.Fatal(err)
	}
	abs, err := Run(context.Background(), p, comp, f, Abstract(16), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if abs.RetValue != real.RetValue {
		t.Fatal("abstract machine diverges functionally")
	}
	if abs.ParallelCycles >= real.ParallelCycles {
		t.Errorf("abstract machine should be faster: %d vs %d", abs.ParallelCycles, real.ParallelCycles)
	}
	if tlp := abs.TLP(); tlp <= 1 {
		t.Errorf("abstract TLP %.2f should exceed 1", tlp)
	}
}

// TestRingStatsAccumulate: parallel runs must report ring traffic.
func TestRingStatsAccumulate(t *testing.T) {
	p, f := buildMixed(t, 600)
	comp, err := hcc.Compile(p, f, hcc.Options{Level: hcc.V3, Cores: 16, TrainArgs: []int64{600}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), p, comp, f, HelixRC(16), 600)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ring.Stores == 0 || res.Ring.Loads == 0 || res.Ring.Signals == 0 {
		t.Errorf("ring statistics empty: %+v", res.Ring)
	}
	// The mixed workload streams its arrays with a per-core stride wider
	// than a cache line, so L1 reuse is zero by construction; the lower
	// levels must still record traffic.
	if res.Mem.L2Hits+res.Mem.DRAMFills == 0 {
		t.Error("memory statistics empty")
	}
}

// TestSequentialOnlyProgram: a program with no selected loops runs purely
// sequentially under a compiled plan with zero loops.
func TestSequentialOnlyProgram(t *testing.T) {
	p := ir.NewProgram("seq")
	f := p.NewFunction("main", 1)
	b := ir.NewBuilder(p, f)
	v := b.Mul(ir.R(f.Params[0]), ir.C(3))
	b.Ret(ir.R(v))
	res, err := Run(context.Background(), p, nil, f, HelixRC(16), 14)
	if err != nil {
		t.Fatal(err)
	}
	if res.RetValue != 42 {
		t.Errorf("got %d", res.RetValue)
	}
	if res.LoopInvocations != 0 {
		t.Error("no loops should have run")
	}
}

// TestFailedRunMatchesReference: a run that fails has no trace to
// replay, so Run must hand back exactly the reference stepper's error
// and partial Result — for every violated compiler guarantee and for an
// exhausted step budget. The functional pass itself must stop with the
// reference's error too: Run's fallback would otherwise hide a check
// the recorder misses whenever another check catches the same fault.
func TestFailedRunMatchesReference(t *testing.T) {
	budget := HelixRC(16)
	budget.MaxSteps = 5000
	for _, tc := range []struct {
		name  string
		arch  Config
		fault func(b *ir.Block, i int) bool
	}{
		{"budget", budget, func(*ir.Block, int) bool { return false }},
		{"missing wait", HelixRC(16), func(b *ir.Block, i int) bool {
			if b.Instrs[i].Op == ir.OpWait {
				b.Instrs[i] = ir.NewInstr(ir.OpNop)
			}
			return false
		}},
		{"double signal", HelixRC(16), func(b *ir.Block, i int) bool {
			if b.Instrs[i].Op != ir.OpSignal {
				return false
			}
			b.Instrs = append(b.Instrs[:i+1], b.Instrs[i:]...)
			return true
		}},
		{"leaked shared store", HelixRC(16), func(b *ir.Block, i int) bool {
			if in := &b.Instrs[i]; in.Op == ir.OpStore && in.SharedSeg >= 0 {
				in.SharedSeg = -1
				return true
			}
			return false
		}},
		{"leaked shared load", HelixRC(16), func(b *ir.Block, i int) bool {
			if in := &b.Instrs[i]; in.Op == ir.OpLoad && in.SharedSeg >= 0 {
				in.SharedSeg = -1
				return true
			}
			return false
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, f, comp, pl := compileMixed(t)
		inject:
			for _, b := range pl.Body.Blocks {
				for i := range b.Instrs {
					if tc.fault(b, i) {
						break inject
					}
				}
			}
			slow := tc.arch
			slow.SlowStep = true
			want, werr := Run(context.Background(), p, comp, f, slow, 600)
			if werr == nil {
				t.Fatal("the reference stepper accepted the faulty run")
			}
			if _, ferr := record(context.Background(), p, comp, f, tc.arch, []int64{600}); ferr == nil || ferr.Error() != werr.Error() {
				t.Errorf("functional pass error %v, reference %v", ferr, werr)
			}
			got, gerr := Run(context.Background(), p, comp, f, tc.arch, 600)
			if gerr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("Run error %v, reference %v", gerr, werr)
			}
			if *got != *want {
				t.Errorf("partial results diverge:\nrun:       %+v\nreference: %+v", got, want)
			}
		})
	}
}
