package cfg

import (
	"testing"

	"helixrc/internal/ir"
)

func TestLivenessStraightLine(t *testing.T) {
	p := ir.NewProgram("t")
	f := p.NewFunction("main", 2)
	b := ir.NewBuilder(p, f)
	x := b.Add(ir.R(f.Params[0]), ir.R(f.Params[1]))
	y := b.Mul(ir.R(x), ir.C(2))
	b.Ret(ir.R(y))
	g := New(f)
	lv := ComputeLiveness(g)
	in := lv.LiveIn[f.Entry().Index]
	if !in.Has(f.Params[0]) || !in.Has(f.Params[1]) {
		t.Error("parameters must be live-in at entry")
	}
	if in.Has(x) || in.Has(y) {
		t.Error("locally defined temps must not be live-in")
	}
}

func TestLivenessAroundLoop(t *testing.T) {
	// for (i=0; i<n; i++) sum += i; return sum — i and sum are live at the
	// header; a body-local temp is not.
	p := ir.NewProgram("t")
	f := p.NewFunction("main", 1)
	b := ir.NewBuilder(p, f)
	n := f.Params[0]
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
	tmp := b.Mul(ir.R(i), ir.C(3))
	b.BinTo(sum, ir.OpAdd, ir.R(sum), ir.R(tmp))
	b.BinTo(i, ir.OpAdd, ir.R(i), ir.C(1))
	b.Br(head)
	b.SetBlock(exit)
	b.Ret(ir.R(sum))
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	g := New(f)
	forest := FindLoops(g)
	lv := ComputeLiveness(g)
	hdr := lv.LiveAtHeader(forest.Loops[0])
	for _, r := range []ir.Reg{i, sum, n} {
		if !hdr.Has(r) {
			t.Errorf("r%d must be live at the loop header", r)
		}
	}
	if hdr.Has(tmp) {
		t.Error("body-local temp must not be live at the header")
	}
	if hdr.Has(c) {
		t.Error("the condition temp must not be live around the backedge")
	}
}

func TestLivenessDiamondPartialDef(t *testing.T) {
	// x defined only on one branch: it stays live-in at entry when read
	// at the join (the other path carries the incoming value).
	p := ir.NewProgram("t")
	f := p.NewFunction("main", 2)
	b := ir.NewBuilder(p, f)
	x := f.Params[1]
	then := b.NewBlock("then")
	join := b.NewBlock("join")
	b.CondBr(ir.R(f.Params[0]), then, join)
	b.SetBlock(then)
	b.MovTo(x, ir.C(7))
	b.Br(join)
	b.SetBlock(join)
	b.Ret(ir.R(x))
	g := New(f)
	lv := ComputeLiveness(g)
	if !lv.LiveIn[f.Entry().Index].Has(x) {
		t.Error("partially defined register must remain live-in")
	}
	if !lv.LiveOut[f.Entry().Index].Has(x) {
		t.Error("x is live-out of the entry block via the fallthrough path")
	}
}

func TestRegSet(t *testing.T) {
	s := NewRegSet(130)
	for _, r := range []ir.Reg{129, 0, 64, 63} {
		s.Add(r)
	}
	o := NewRegSet(130)
	o.Add(5)
	o.Add(64)
	s.Union(o)
	got := s.Regs()
	want := []ir.Reg{0, 5, 63, 64, 129}
	if len(got) != len(want) {
		t.Fatalf("Regs() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] || !s.Has(want[i]) {
			t.Fatalf("Regs() = %v, want %v", got, want)
		}
	}
	for _, r := range []ir.Reg{1, 65, 128, 192, ir.NoReg} {
		if s.Has(r) {
			t.Errorf("Has(%d) on a non-member", r)
		}
	}
}
