package interp

import (
	"testing"
	"testing/quick"

	"helixrc/internal/cfg"
	"helixrc/internal/ir"
)

// buildSumLoop builds: for (i=0; i<n; i++) sum += a[i]; return sum, over a
// global array initialized 0..99.
func buildSumLoop(t testing.TB) (*ir.Program, *ir.Function) {
	p := ir.NewProgram("sum")
	ty := p.NewType("int[]")
	arr := p.AddGlobal("a", 100, ty)
	for i := int64(0); i < 100; i++ {
		arr.Init = append(arr.Init, i)
	}
	f := p.NewFunction("main", 1)
	b := ir.NewBuilder(p, f)
	n := f.Params[0]
	base := b.GlobalAddr(arr)
	i := b.Const(0)
	sum := b.Const(0)
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(head)
	b.SetBlock(head)
	c := b.Bin(ir.OpCmpLT, ir.R(i), ir.R(n))
	b.CondBr(ir.R(c), body, exit)
	b.SetBlock(body)
	addr := b.Add(ir.R(base), ir.R(i))
	v := b.Load(ir.R(addr), 0, ir.MemAttrs{Type: ty})
	b.BinTo(sum, ir.OpAdd, ir.R(sum), ir.R(v))
	b.BinTo(i, ir.OpAdd, ir.R(i), ir.C(1))
	b.Br(head)
	b.SetBlock(exit)
	b.Ret(ir.R(sum))
	if err := p.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	p.AssignUIDs()
	return p, f
}

func TestRunSumLoop(t *testing.T) {
	p, f := buildSumLoop(t)
	res, err := Run(p, f, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.RetValue != 99*100/2 {
		t.Errorf("sum = %d, want %d", res.RetValue, 99*100/2)
	}
	if res.Steps == 0 {
		t.Error("no steps recorded")
	}
}

func TestRunBudget(t *testing.T) {
	p, f := buildSumLoop(t)
	_, err := Run(p, f, 10, 100)
	if err != ErrBudget {
		t.Errorf("want ErrBudget, got %v", err)
	}
}

func TestCallsAndExterns(t *testing.T) {
	p := ir.NewProgram("call")
	callee := p.NewFunction("double", 1)
	cb := ir.NewBuilder(p, callee)
	r := cb.Add(ir.R(callee.Params[0]), ir.R(callee.Params[0]))
	cb.Ret(ir.R(r))

	abs := &ir.Extern{Name: "abs", Result: func(a []int64) int64 {
		if a[0] < 0 {
			return -a[0]
		}
		return a[0]
	}, Latency: 3}

	f := p.NewFunction("main", 0)
	b := ir.NewBuilder(p, f)
	x := b.Call(callee, ir.C(21))
	y := b.CallExtern(abs, ir.C(-5))
	z := b.Add(ir.R(x), ir.R(y))
	b.Ret(ir.R(z))
	if err := p.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	res, err := Run(p, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.RetValue != 47 {
		t.Errorf("got %d, want 47", res.RetValue)
	}
}

func TestAllocAndMemory(t *testing.T) {
	p := ir.NewProgram("alloc")
	ty := p.NewType("buf")
	f := p.NewFunction("main", 0)
	b := ir.NewBuilder(p, f)
	buf := b.Alloc(8, ty)
	b.Store(ir.R(buf), 3, ir.C(42), ir.MemAttrs{Type: ty})
	v := b.Load(ir.R(buf), 3, ir.MemAttrs{Type: ty})
	b.Ret(ir.R(v))
	if err := p.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	res, err := Run(p, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.RetValue != 42 {
		t.Errorf("got %d, want 42", res.RetValue)
	}
	if res.Mem.ArenaNext() < p.ArenaBase()+8 {
		t.Error("arena did not advance")
	}
}

func TestMemoryGrowAndSnapshot(t *testing.T) {
	m := &Memory{}
	m.Store(100000, 7)
	if m.Load(100000) != 7 {
		t.Error("store/load at large address failed")
	}
	if m.Load(999999) != 0 {
		t.Error("unwritten memory should read 0")
	}
	snap := m.Snapshot(99999, 3)
	if snap[0] != 0 || snap[1] != 7 || snap[2] != 0 {
		t.Errorf("snapshot = %v", snap)
	}
}

// TestMemoryBacksOnlyItsSpan: a program's memory backs its globals, not
// the unused range below them, and still reads and writes any address —
// below the globals, inside them and past the arena — as a flat store.
func TestMemoryBacksOnlyItsSpan(t *testing.T) {
	p := ir.NewProgram("span")
	g := p.AddGlobal("g", 4, ir.TypeAny)
	g.Init = []int64{1, 2, 3, 4}
	m := NewMemory(p)
	if len(m.words) > 64 {
		t.Errorf("memory backs %d words for 4 words of globals", len(m.words))
	}
	m.Store(g.Addr-5000, 9)
	m.Store(m.ArenaNext()+5000, 8)
	for i, want := range []int64{1, 2, 3, 4} {
		if got := m.Load(g.Addr + int64(i)); got != want {
			t.Errorf("global word %d = %d, want %d", i, got, want)
		}
	}
	if m.Load(g.Addr-5000) != 9 || m.Load(m.ArenaNext()+5000) != 8 || m.Load(1) != 0 {
		t.Error("stores outside the initial span did not read back")
	}
}

func TestMemoryNegativePanics(t *testing.T) {
	m := &Memory{}
	defer func() {
		if recover() == nil {
			t.Error("negative address should panic")
		}
	}()
	m.Load(-1)
}

func TestMemoryStoreLoadProperty(t *testing.T) {
	m := &Memory{}
	f := func(addr uint16, v int64) bool {
		m.Store(int64(addr), v)
		return m.Load(int64(addr)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContextStepDetails(t *testing.T) {
	p, f := buildSumLoop(t)
	mem := NewMemory(p)
	c := NewContext(p, mem, f, 5)
	var loads, branches int
	for !c.Done() {
		in := c.Next()
		if in.Op == ir.OpLoad {
			// EffectiveAddr must match what Step reports.
			want := c.EffectiveAddr(in)
			info := c.Step()
			if info.Addr != want {
				t.Fatalf("EffectiveAddr=%d but Step saw %d", want, info.Addr)
			}
			loads++
			continue
		}
		info := c.Step()
		if info.Branched {
			branches++
		}
	}
	if loads != 5 {
		t.Errorf("loads = %d, want 5", loads)
	}
	if branches == 0 {
		t.Error("no branches observed")
	}
}

// buildRecurrence builds a loop with a true loop-carried memory dependence:
// for (i=1; i<n; i++) a[0] = a[0] + i   (store in iteration i, load in i+1).
func buildRecurrence(t testing.TB) (*ir.Program, *ir.Function, *cfg.Forest) {
	p := ir.NewProgram("rec")
	ty := p.NewType("cell")
	cell := p.AddGlobal("cell", 1, ty)
	f := p.NewFunction("main", 1)
	b := ir.NewBuilder(p, f)
	n := f.Params[0]
	base := b.GlobalAddr(cell)
	i := b.Const(0)
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(head)
	b.SetBlock(head)
	c := b.Bin(ir.OpCmpLT, ir.R(i), ir.R(n))
	b.CondBr(ir.R(c), body, exit)
	b.SetBlock(body)
	v := b.Load(ir.R(base), 0, ir.MemAttrs{Type: ty})
	nv := b.Add(ir.R(v), ir.R(i))
	b.Store(ir.R(base), 0, ir.R(nv), ir.MemAttrs{Type: ty})
	b.BinTo(i, ir.OpAdd, ir.R(i), ir.C(1))
	b.Br(head)
	b.SetBlock(exit)
	v2 := b.Load(ir.R(base), 0, ir.MemAttrs{Type: ty})
	b.Ret(ir.R(v2))
	if err := p.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	p.AssignUIDs()
	forest := cfg.FindLoops(cfg.New(f))
	return p, f, forest
}

func TestProfilerLoopStats(t *testing.T) {
	p, f, forest := buildRecurrence(t)
	pr := &Profiler{Prog: p, Forests: map[*ir.Function]*cfg.Forest{f: forest}, RingSize: 16}
	prof, err := pr.Run(f, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Loops) != 1 {
		t.Fatalf("profiled %d loops, want 1", len(prof.Loops))
	}
	var lp *LoopProfile
	for _, v := range prof.Loops {
		lp = v
	}
	if lp.Invocations != 1 {
		t.Errorf("invocations = %d", lp.Invocations)
	}
	if lp.Iterations != 41 { // 40 body iterations + final header evaluation
		t.Errorf("iterations = %d, want 41", lp.Iterations)
	}
	if len(lp.TripCounts) != 1 || lp.TripCounts[0] != 41 {
		t.Errorf("trip counts = %v", lp.TripCounts)
	}
	if len(lp.Deps) == 0 {
		t.Fatal("dependence oracle found no deps in a recurrence")
	}
	if len(lp.SharedAddrs) != 1 {
		t.Errorf("shared addrs = %v", lp.SharedAddrs)
	}
	// Every consumption is by the very next iteration: hop distance 1.
	if lp.HopDist[1] == 0 {
		t.Errorf("expected hop distance 1 samples, got %v", lp.HopDist)
	}
	if lp.AvgIterLen() <= 0 || lp.AvgTripCount() != 41 {
		t.Errorf("iterlen=%f trip=%f", lp.AvgIterLen(), lp.AvgTripCount())
	}
	if lp.Coverage(prof.TotalInstrs) <= 0.5 {
		t.Errorf("loop coverage suspiciously low: %f", lp.Coverage(prof.TotalInstrs))
	}
}

func TestProfilerNoDepsInDoall(t *testing.T) {
	p, f := buildSumLoop(t)
	forest := cfg.FindLoops(cfg.New(f))
	pr := &Profiler{Prog: p, Forests: map[*ir.Function]*cfg.Forest{f: forest}}
	prof, err := pr.Run(f, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, lp := range prof.Loops {
		if len(lp.Deps) != 0 {
			t.Errorf("DOALL loop reported deps: %v", lp.Deps)
		}
	}
	if prof.RetValue != 49*50/2 {
		t.Errorf("ret = %d", prof.RetValue)
	}
}

func TestProfilerBudget(t *testing.T) {
	p, f, forest := buildRecurrence(t)
	pr := &Profiler{Prog: p, Forests: map[*ir.Function]*cfg.Forest{f: forest}, Budget: 10}
	if _, err := pr.Run(f, 1000000); err != ErrBudget {
		t.Errorf("want ErrBudget, got %v", err)
	}
}
