package sim

// Pre-decoded instruction metadata: the unit of the trace format. The
// functional recorder decodes each static instruction once into an
// instrMeta (operand registers, latency class, traffic class, branch
// behaviour) and stores it in the trace's flat table; the replayers
// dispatch on the small class tag instead of re-deriving it per dynamic
// instruction, as the reference stepper does.

import (
	"helixrc/internal/cpu"
	"helixrc/internal/interp"
	"helixrc/internal/ir"
)

// mClass is an instruction's dispatch class, fixed at decode time.
type mClass uint8

const (
	clsOther  mClass = iota // plain op: latency and operands pre-resolved
	clsWait                 // OpWait on segment seg
	clsSignal               // OpSignal on segment seg
	clsShared               // memory op on shared data (SharedSeg >= 0)
	clsPriv                 // private memory op
)

// instrMeta is everything the stepper needs per static instruction.
type instrMeta struct {
	lat      int64  // result latency for non-memory instructions
	dst      ir.Reg // destination register or ir.NoReg
	lastVal  ir.Reg // last-value register this instruction defines, or ir.NoReg
	seg      int32  // segment id for wait/signal/shared classes
	cls      mClass
	isStore  bool
	branches bool // interp.Branches(in): whether Step reports Branched
	added    bool // compiler-added (Origin < 0, non-sync): counts as AddedInstr overhead
	nuses    uint8
	uses     [2]ir.Reg
	more     []ir.Reg // register operands beyond the first two (calls)
}

// decodeInstr derives the metadata the reference stepper re-computes per
// dynamic instruction.
func decodeInstr(in *ir.Instr, lastValDefs map[int32]ir.Reg) instrMeta {
	m := instrMeta{
		lat:     cpu.Latency(in.Op),
		dst:     in.Def(),
		lastVal: ir.NoReg,
		seg:     int32(in.Seg),
	}
	switch {
	case in.Op == ir.OpWait:
		m.cls = clsWait
	case in.Op == ir.OpSignal:
		m.cls = clsSignal
	case in.Op.IsMem():
		m.isStore = in.Op == ir.OpStore
		if in.SharedSeg >= 0 {
			m.cls = clsShared
			m.seg = int32(in.SharedSeg)
		} else {
			m.cls = clsPriv
		}
	default:
		m.cls = clsOther
		if in.Op == ir.OpCall && in.Extern != nil && in.Extern.Latency > 0 {
			m.lat = int64(in.Extern.Latency)
		}
	}
	m.branches = interp.Branches(in)
	var scratch [8]ir.Reg
	for _, reg := range in.Uses(scratch[:0]) {
		if m.nuses < 2 {
			m.uses[m.nuses] = reg
		} else {
			m.more = append(m.more, reg)
		}
		m.nuses++
	}
	m.added = in.Origin < 0 && !in.Op.IsSync()
	if lastValDefs != nil {
		if reg, ok := lastValDefs[in.UID]; ok {
			m.lastVal = reg
		}
	}
	return m
}

// segScratch replaces the per-iteration waitDone/sigCount maps with
// epoch-stamped slices: bumping the epoch invalidates every entry in
// O(1), so each iteration starts from the empty state without clearing.
type segScratch struct {
	epoch  int64
	waitEp []int64
	sigEp  []int64
	sigCnt []int32
}

func (s *segScratch) ensure(n int) {
	for len(s.waitEp) < n {
		s.waitEp = append(s.waitEp, 0)
		s.sigEp = append(s.sigEp, 0)
		s.sigCnt = append(s.sigCnt, 0)
	}
}
