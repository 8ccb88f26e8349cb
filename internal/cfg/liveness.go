package cfg

import (
	"math/bits"

	"helixrc/internal/ir"
)

// RegSet is a dense register set: bit r of word r/64 marks register r.
type RegSet []uint64

// NewRegSet returns an empty set sized for registers [0, numRegs).
func NewRegSet(numRegs int) RegSet { return make(RegSet, (numRegs+63)/64) }

// Has reports membership; registers outside the set's range are absent.
func (s RegSet) Has(r ir.Reg) bool {
	i := int(r) >> 6
	return r >= 0 && i < len(s) && s[i]&(1<<(uint(r)&63)) != 0
}

// Add inserts r, which must lie inside the set's range.
func (s RegSet) Add(r ir.Reg) { s[int(r)>>6] |= 1 << (uint(r) & 63) }

// Union adds every member of o (same range) to s.
func (s RegSet) Union(o RegSet) {
	for i, w := range o {
		s[i] |= w
	}
}

// Regs lists the members in ascending order.
func (s RegSet) Regs() []ir.Reg {
	var out []ir.Reg
	for i, w := range s {
		for w != 0 {
			out = append(out, ir.Reg(i<<6+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return out
}

// Liveness holds per-block live-in/live-out register sets for a function.
type Liveness struct {
	Fn      *ir.Function
	LiveIn  []RegSet
	LiveOut []RegSet
}

// ComputeLiveness runs the standard backward dataflow. Call instructions
// use their argument registers; no registers are implicitly live across
// calls (the IR has no callee-saved convention — frames are private).
// The result depends only on the function's code, so a compiler computes
// it once per function and shares it across every loop it analyzes.
func ComputeLiveness(g *Graph) *Liveness {
	f := g.Fn
	n := len(f.Blocks)
	words := (f.NumRegs + 63) / 64
	// One backing array for the four per-block set families.
	backing := make([]uint64, 4*n*words)
	set := func(k, b int) RegSet {
		off := (k*n + b) * words
		return RegSet(backing[off : off+words : off+words])
	}
	lv := &Liveness{Fn: f, LiveIn: make([]RegSet, n), LiveOut: make([]RegSet, n)}
	use := make([]RegSet, n)
	def := make([]RegSet, n)
	var scratch []ir.Reg
	for _, b := range f.Blocks {
		i := b.Index
		lv.LiveIn[i], lv.LiveOut[i], use[i], def[i] = set(0, i), set(1, i), set(2, i), set(3, i)
		u, d := use[i], def[i]
		for k := range b.Instrs {
			in := &b.Instrs[k]
			scratch = in.Uses(scratch[:0])
			for _, r := range scratch {
				if !d.Has(r) {
					u.Add(r)
				}
			}
			if dr := in.Def(); dr != ir.NoReg {
				d.Add(dr)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		// Iterate in reverse RPO for faster convergence.
		for i := len(g.RPO) - 1; i >= 0; i-- {
			b := g.RPO[i].Index
			out, in, u, d := lv.LiveOut[b], lv.LiveIn[b], use[b], def[b]
			for _, s := range g.Succs[b] {
				out.Union(lv.LiveIn[s.Index])
			}
			for w := range in {
				nw := in[w] | u[w] | out[w]&^d[w]
				if nw != in[w] {
					in[w] = nw
					changed = true
				}
			}
		}
	}
	return lv
}

// LiveAtHeader returns the registers live on entry to a loop's header —
// the candidates for loop-carried register dependences.
func (lv *Liveness) LiveAtHeader(l *Loop) RegSet {
	return lv.LiveIn[l.Header.Index]
}
