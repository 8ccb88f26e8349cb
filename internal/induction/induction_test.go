package induction

import (
	"math"
	"testing"

	"helixrc/internal/alias"
	"helixrc/internal/cfg"
	"helixrc/internal/ddg"
	"helixrc/internal/ir"
)

// buildClassLoop builds one loop exercising every predictability class:
//
//	i    — linear induction (i += 1)
//	tri  — second order (tri += i)
//	sum  — accumulator (sum += a[i], conditionally!)
//	mx   — max accumulator
//	last — set every iteration, never read in loop
//	tmp  — set before use (private)
//	ptr  — pointer chase (shared)
func buildClassLoop(t *testing.T) (map[string]ir.Reg, map[ir.Reg]Info) {
	t.Helper()
	p := ir.NewProgram("classes")
	ty := p.NewType("int")
	arr := p.AddGlobal("arr", 64, ty)
	f := p.NewFunction("main", 1)
	b := ir.NewBuilder(p, f)
	n := f.Params[0]
	base := b.GlobalAddr(arr)
	i := b.Const(0)
	tri := b.Const(0)
	sum := b.Const(0)
	mx := b.Const(math.MinInt64)
	last := b.Const(0)
	ptr := b.Mov(ir.R(base))
	tmp := b.Const(0)

	head := b.NewBlock("head")
	body := b.NewBlock("body")
	then := b.NewBlock("then")
	cont := b.NewBlock("cont")
	exit := b.NewBlock("exit")
	b.Br(head)
	b.SetBlock(head)
	c := b.Bin(ir.OpCmpLT, ir.R(i), ir.R(n))
	b.CondBr(ir.R(c), body, exit)

	b.SetBlock(body)
	addr := b.Add(ir.R(base), ir.R(i))
	v := b.Load(ir.R(addr), 0, ir.MemAttrs{Type: ty})
	b.MovTo(tmp, ir.R(v)) // tmp set before any use: private
	b.BinTo(mx, ir.OpMax, ir.R(mx), ir.R(tmp))
	b.MovTo(last, ir.R(v)) // written every iteration, read after loop only
	b.BinTo(tri, ir.OpAdd, ir.R(tri), ir.R(i))
	cnd := b.Bin(ir.OpCmpGT, ir.R(v), ir.C(10))
	b.CondBr(ir.R(cnd), then, cont)

	b.SetBlock(then)
	b.BinTo(sum, ir.OpAdd, ir.R(sum), ir.R(v)) // conditional accumulation
	b.Br(cont)

	b.SetBlock(cont)
	nxt := b.Load(ir.R(ptr), 0, ir.MemAttrs{Type: ty, Path: "node.next"})
	b.MovTo(ptr, ir.R(nxt)) // pointer chase: genuinely shared
	b.BinTo(i, ir.OpAdd, ir.R(i), ir.C(1))
	b.Br(head)

	b.SetBlock(exit)
	r1 := b.Add(ir.R(sum), ir.R(last))
	r2 := b.Add(ir.R(r1), ir.R(mx))
	r3 := b.Add(ir.R(r2), ir.R(tri))
	r4 := b.Add(ir.R(r3), ir.R(ptr))
	b.Ret(ir.R(r4))
	if err := p.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	p.AssignUIDs()

	g := cfg.New(f)
	forest := cfg.FindLoops(g)
	if len(forest.Loops) != 1 {
		t.Fatalf("want 1 loop, got %d", len(forest.Loops))
	}
	loop := forest.Loops[0]
	dg := ddg.Build(p, f, g, cfg.ComputeLiveness(g), loop, alias.New(p, alias.TierLib))
	infos := Classify(f, g, loop, dg.CarriedRegs)
	regs := map[string]ir.Reg{
		"i": i, "tri": tri, "sum": sum, "mx": mx, "last": last, "ptr": ptr, "tmp": tmp,
	}
	return regs, infos
}

func TestClassification(t *testing.T) {
	regs, infos := buildClassLoop(t)
	want := map[string]Class{
		"i":    ClassInduction,
		"tri":  ClassPoly2,
		"sum":  ClassAccum,
		"mx":   ClassAccum,
		"last": ClassLastValue,
		"ptr":  ClassShared,
	}
	for name, cls := range want {
		info, ok := infos[regs[name]]
		if !ok {
			t.Errorf("%s (r%d) not classified (not carried?)", name, regs[name])
			continue
		}
		if info.Class != cls {
			t.Errorf("%s: class = %v, want %v", name, info.Class, cls)
		}
	}
	// tmp is set before use: either absent from carried regs entirely or
	// classified private.
	if info, ok := infos[regs["tmp"]]; ok && info.Class != ClassPrivate {
		t.Errorf("tmp: class = %v, want private or not carried", info.Class)
	}
	// Induction step extraction.
	if info := infos[regs["i"]]; !info.Step.IsConst() || info.Step.Imm != 1 {
		t.Errorf("i step = %v", info.Step)
	}
	if info := infos[regs["tri"]]; info.StepReg != regs["i"] {
		t.Errorf("tri inner reg = %v, want %v", info.StepReg, regs["i"])
	}
	if info := infos[regs["mx"]]; info.Reduce != ReduceMax {
		t.Errorf("mx reduce = %v", info.Reduce)
	}
}

func TestReduceKinds(t *testing.T) {
	if ReduceAdd.Identity() != 0 || ReduceMul.Identity() != 1 {
		t.Error("identities wrong")
	}
	if ReduceMin.Identity() != math.MaxInt64 || ReduceMax.Identity() != math.MinInt64 {
		t.Error("min/max identities wrong")
	}
	if ReduceAdd.Combine(3, 4) != 7 || ReduceMul.Combine(3, 4) != 12 {
		t.Error("combine wrong")
	}
	if ReduceMin.Combine(3, 4) != 3 || ReduceMax.Combine(3, 4) != 4 {
		t.Error("min/max combine wrong")
	}
}

func TestClassStrings(t *testing.T) {
	for c := ClassPrivate; c <= ClassShared; c++ {
		if c.String() == "?" {
			t.Errorf("class %d has no name", c)
		}
	}
	if ClassShared.Predictable() {
		t.Error("shared is not predictable")
	}
	if !ClassAccum.Predictable() {
		t.Error("accumulator is predictable")
	}
}

// TestRecurrenceNotLastValue pins the classification of registers whose
// loop defs read the register itself with mixed operations — a Horner
// fold h = h*31 + a[i] is the canonical shape. Such a register is NOT a
// reduction (mixed ⊕) and must NOT be last-value (its defs consume the
// previous iteration's value); privatizing it severs the recurrence.
// Found by differential fuzzing: hccv2/v3 miscompiled these folds at
// 4+ cores before defsReadSelf existed (each core chained only its own
// iterations from zero).
func TestRecurrenceNotLastValue(t *testing.T) {
	build := func(mutate func(b *ir.Builder, h ir.Reg, v ir.Reg)) (ir.Reg, map[ir.Reg]Info) {
		p := ir.NewProgram("horner")
		ty := p.NewType("int")
		arr := p.AddGlobal("arr", 8, ty)
		f := p.NewFunction("main", 1)
		b := ir.NewBuilder(p, f)
		base := b.GlobalAddr(arr)
		i := b.Const(0)
		h := b.Const(0)
		head, body, exit := b.NewBlock("head"), b.NewBlock("body"), b.NewBlock("exit")
		b.Br(head)
		b.SetBlock(head)
		c := b.Bin(ir.OpCmpLT, ir.R(i), ir.C(8))
		b.CondBr(ir.R(c), body, exit)
		b.SetBlock(body)
		addr := b.Add(ir.R(base), ir.R(i))
		v := b.Load(ir.R(addr), 0, ir.MemAttrs{Type: ty})
		mutate(b, h, v)
		b.BinTo(i, ir.OpAdd, ir.R(i), ir.C(1))
		b.Br(head)
		b.SetBlock(exit)
		b.Ret(ir.R(h))
		if err := p.Verify(); err != nil {
			t.Fatalf("verify: %v", err)
		}
		p.AssignUIDs()
		g := cfg.New(f)
		loop := cfg.FindLoops(g).Loops[0]
		dg := ddg.Build(p, f, g, cfg.ComputeLiveness(g), loop, alias.New(p, alias.TierLib))
		return h, Classify(f, g, loop, dg.CarriedRegs)
	}

	cases := []struct {
		name   string
		mutate func(b *ir.Builder, h, v ir.Reg)
		want   Class
	}{
		{"horner", func(b *ir.Builder, h, v ir.Reg) {
			b.BinTo(h, ir.OpMul, ir.R(h), ir.C(31))
			b.BinTo(h, ir.OpAdd, ir.R(h), ir.R(v))
		}, ClassShared},
		{"geometric", func(b *ir.Builder, h, v ir.Reg) {
			b.BinTo(h, ir.OpMul, ir.R(h), ir.C(3))
		}, ClassAccum}, // single consistent ⊕ = * is a valid reduction
		{"flipped-sub", func(b *ir.Builder, h, v ir.Reg) {
			b.BinTo(h, ir.OpSub, ir.R(v), ir.R(h)) // h = v - h: alternating sign
		}, ClassShared},
		{"xor-chain", func(b *ir.Builder, h, v ir.Reg) {
			b.BinTo(h, ir.OpXor, ir.R(h), ir.R(v)) // xor is not a ReduceKind
		}, ClassShared},
		// Both operands are the register itself: these look like
		// reductions operator-wise but are recurrences (doubling,
		// squaring, zeroing) whose per-iteration contribution is the
		// accumulator — also found by differential fuzzing (hccv2
		// parallel runs dropped the 2^k factor of doubling chains).
		{"doubling", func(b *ir.Builder, h, v ir.Reg) {
			b.BinTo(h, ir.OpAdd, ir.R(h), ir.R(h)) // h = h + h = 2h
		}, ClassShared},
		{"squaring", func(b *ir.Builder, h, v ir.Reg) {
			b.BinTo(h, ir.OpMul, ir.R(h), ir.R(h)) // h = h * h
		}, ClassShared},
		{"self-sub", func(b *ir.Builder, h, v ir.Reg) {
			b.BinTo(h, ir.OpSub, ir.R(h), ir.R(h)) // h = h - h = 0
		}, ClassShared},
	}
	for _, tc := range cases {
		h, infos := build(tc.mutate)
		info, ok := infos[h]
		if !ok {
			t.Errorf("%s: h not in carried-register classification", tc.name)
			continue
		}
		if info.Class != tc.want {
			t.Errorf("%s: class = %v, want %v", tc.name, info.Class, tc.want)
		}
	}
}
