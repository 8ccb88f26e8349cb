package sim

// The functional pass. Record executes the program once on the
// interpreter — sequential code on core 0, each parallel loop's
// iterations round-robin across per-core register files under the
// stop protocol — and captures the Trace the replayers time. It owns
// everything functional the reference stepper does (slot broadcast,
// reduction and last-value restore, every compiler-guarantee check,
// the step budget) and nothing it times: no cpu.Core, no memory
// hierarchy, no ring. Iteration order equals sequential order for all
// shared state, so one pass over the iterations in order is exact.

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"helixrc/internal/hcc"
	"helixrc/internal/interp"
	"helixrc/internal/ir"
)

// Record runs entry(args...) functionally, capturing a Trace of its
// dynamic behaviour, and times it with Replay under arch. The Result is
// the one Run returns (Run is Record with the trace dropped); the Trace
// replays under any Config with the same core count (or any core count
// for baseline traces).
//
// A run that fails — step budget, a violated compiler guarantee, a
// cancelled ctx — leaves no trace. Its partial Result comes from the
// reference stepper, which fails at the same instruction.
func Record(ctx context.Context, prog *ir.Program, comp *hcc.Compiled, entry *ir.Function, arch Config, args ...int64) (*Result, *Trace, error) {
	if arch.SlowStep {
		return nil, nil, errors.New("sim: cannot record a trace with SlowStep")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if arch.Cores <= 0 {
		arch.Cores = 16
	}
	tr, ferr := record(ctx, prog, comp, entry, arch, args)
	if ferr != nil {
		res, err := runReference(ctx, prog, comp, entry, arch, args)
		if err == nil {
			err = fmt.Errorf("sim: functional pass failed but the reference stepper did not: %w", ferr)
		}
		return res, nil, err
	}
	res, err := Replay(ctx, tr, arch)
	if err != nil {
		return res, nil, err
	}
	return res, tr, nil
}

// record is the functional pass proper. It fails with the error the
// reference stepper fails with, at the same instruction.
func record(ctx context.Context, prog *ir.Program, comp *hcc.Compiled, entry *ir.Function, arch Config, args []int64) (*Trace, error) {
	rec := &recorder{
		stepBudget: stepBudget{ctx: ctx, maxSteps: arch.effectiveMaxSteps()},
		prog:       prog,
		cores:      arch.Cores,
		mem:        interp.NewMemory(prog),
		headerMap:  loopHeaders(comp),
		tr:         &Trace{cores: arch.Cores, maxRegs: maxRegs(prog)},
		blockOff:   map[*ir.Block]uint32{},
		loops:      map[*hcc.ParallelLoop]*loopStatic{},
		lastW:      map[int64]lastWrite{},
		lastVals:   map[ir.Reg]lastValRec{},
	}
	if err := rec.runSequential(entry, args); err != nil {
		return nil, err
	}
	return rec.finish(), nil
}

// loopStatic caches the per-loop facts the reference stepper re-derives
// per invocation.
type loopStatic struct {
	usedSegs    []int // sorted segment ids that signal in the body
	lastValDefs map[int32]ir.Reg
}

func (rec *recorder) staticFor(pl *hcc.ParallelLoop) *loopStatic {
	if ls, ok := rec.loops[pl]; ok {
		return ls
	}
	ls := &loopStatic{lastValDefs: map[int32]ir.Reg{}}
	segs := map[int]bool{}
	for _, b := range pl.Body.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpSignal {
				segs[b.Instrs[i].Seg] = true
			}
		}
	}
	for s := range segs {
		ls.usedSegs = append(ls.usedSegs, s)
	}
	sort.Ints(ls.usedSegs)
	for reg, uids := range pl.LastValue {
		for _, uid := range uids {
			ls.lastValDefs[uid] = reg
		}
	}
	rec.loops[pl] = ls
	return ls
}

// recorder is the functional pass's state. The Trace it builds is a
// separate allocation, so a cached Trace does not keep the recorder's
// memory image alive.
type recorder struct {
	stepBudget
	prog      *ir.Program
	cores     int
	mem       *interp.Memory
	headerMap map[*ir.Block]*hcc.ParallelLoop
	loops     map[*hcc.ParallelLoop]*loopStatic

	tr       *Trace
	blockOff map[*ir.Block]uint32 // block -> base offset in tr.metas

	// open run [runOff, runOff+runN) not yet flushed to tr.runs.
	runOff uint32
	runN   uint32

	spanStart int // tr.runs length at the current seq span's start

	// Per-core loop state, reused across invocations.
	regs     [][]int64
	bctxs    []*interp.Context
	stopped  []bool
	lastW    map[int64]lastWrite
	lastVals map[ir.Reg]lastValRec
	scr      segScratch
}

// baseFor returns the block's base offset in the flat metadata table,
// decoding it on first touch. lastValDefs must be the owning loop's map
// for body blocks (UIDs are program-unique, so passing a map to
// unrelated blocks is harmless).
func (rec *recorder) baseFor(b *ir.Block, lastValDefs map[int32]ir.Reg) uint32 {
	if off, ok := rec.blockOff[b]; ok {
		return off
	}
	off := uint32(len(rec.tr.metas))
	for i := range b.Instrs {
		rec.tr.metas = append(rec.tr.metas, decodeInstr(&b.Instrs[i], lastValDefs))
	}
	rec.blockOff[b] = off
	return off
}

// note records execution of metas[base+idx], extending the open run when
// contiguous.
func (rec *recorder) note(base uint32, idx int) {
	off := base + uint32(idx)
	if rec.runN > 0 && rec.runOff+rec.runN == off {
		rec.runN++
		return
	}
	rec.flushRun()
	rec.runOff, rec.runN = off, 1
}

func (rec *recorder) flushRun() {
	if rec.runN > 0 {
		rec.tr.runs = append(rec.tr.runs, blockRun{off: rec.runOff, n: rec.runN})
		rec.runN = 0
	}
}

// addr records a memory op's effective address and whether it hit a
// shared register slot.
func (rec *recorder) addr(a int64, slot bool) {
	i := len(rec.tr.addrs)
	rec.tr.addrs = append(rec.tr.addrs, a)
	if slot {
		w := i >> 6
		for len(rec.tr.slots) <= w {
			rec.tr.slots = append(rec.tr.slots, 0)
		}
		rec.tr.slots[w] |= 1 << uint(i&63)
	}
}

// finish closes the trailing sequential span and seals the trace.
func (rec *recorder) finish() *Trace {
	rec.flushRun()
	rec.tr.events = append(rec.tr.events, traceEvent{
		runs: int32(len(rec.tr.runs) - rec.spanStart),
		loop: -1,
	})
	rec.tr.instrs = rec.steps
	return rec.tr
}

// runSequential executes code outside parallel loops (core 0's share).
func (rec *recorder) runSequential(entry *ir.Function, args []int64) error {
	ctx := interp.NewContext(rec.prog, rec.mem, entry, args...)
	var curBlk *ir.Block
	var base uint32
	for !ctx.Done() {
		if rec.steps >= rec.check {
			if err := rec.checkStep(); err != nil {
				return err
			}
		}
		_, blk, idx := ctx.Frame()
		if idx == 0 {
			if pl := rec.headerMap[blk]; pl != nil {
				if err := rec.runLoop(pl, ctx); err != nil {
					return err
				}
				continue
			}
		}
		if blk != curBlk {
			curBlk, base = blk, rec.baseFor(blk, nil)
		}
		rec.note(base, idx)
		info := ctx.Step()
		if info.Instr.Op.IsMem() {
			rec.addr(info.Addr, false)
		}
		rec.steps++
		if info.Returned {
			rec.tr.retValue = info.RetValue
		}
	}
	return nil
}

// runLoop executes one invocation of a parallelized loop: live-in
// broadcast, iterations round-robin across the cores until every core
// has stopped, then the architectural state restore.
func (rec *recorder) runLoop(pl *hcc.ParallelLoop, ctx *interp.Context) error {
	n := rec.cores
	ls := rec.staticFor(pl)
	body := pl.Body

	enterLoop(pl, ctx, rec.mem)

	// Close the sequential span and open the loop record.
	rec.flushRun()
	rec.tr.events = append(rec.tr.events, traceEvent{
		runs: int32(len(rec.tr.runs) - rec.spanStart),
		loop: int32(len(rec.tr.loops)),
	})
	lt := loopTrace{
		numSegs:  int32(pl.NumSegs),
		numSlots: int32(len(pl.SlotOf)),
		numRegs:  int32(body.NumRegs),
		counted:  pl.Counted,
	}
	for reg, slot := range pl.SlotOf {
		lt.liveIns = append(lt.liveIns, regVal{reg: int32(slot), val: ctx.Reg(reg)})
	}
	sortRegVals(lt.liveIns)
	rec.tr.loops = append(rec.tr.loops, lt)
	rec.spanStart = len(rec.tr.runs)

	if len(rec.regs) < n {
		rec.regs = make([][]int64, n)
		rec.bctxs = make([]*interp.Context, n)
		rec.stopped = make([]bool, n)
	}
	for c := 0; c < n; c++ {
		rf := rec.regs[c]
		if cap(rf) < body.NumRegs {
			rf = make([]int64, body.NumRegs)
		} else {
			rf = rf[:body.NumRegs]
			clear(rf)
		}
		initLoopRegs(pl, ctx, rf)
		rec.regs[c] = rf
		rec.stopped[c] = false
	}
	rec.scr.ensure(pl.NumSegs)
	clear(rec.lastW)
	clear(rec.lastVals)

	exitIter := int64(-1)
	exitCode := int64(-1)
	exitCore := -1
	stoppedCount := 0

	var iter int64
	for stoppedCount < n {
		c := int(iter % int64(n))
		if rec.stopped[c] {
			iter++
			continue
		}
		rec.flushRun()
		start := len(rec.tr.runs)
		status, err := rec.runIteration(pl, ls, c, iter)
		if err != nil {
			return err
		}
		rec.flushRun()
		lp := &rec.tr.loops[len(rec.tr.loops)-1]
		lp.iters = append(lp.iters, iterTrace{
			status: int32(status),
			runs:   int32(len(rec.tr.runs) - start),
		})
		if status != 0 {
			// Status 1: the core found no iteration to run. Otherwise
			// the iteration left the loop via exit edge status-2.
			if status != 1 && exitIter < 0 {
				exitIter, exitCode, exitCore = iter, status-2, c
			}
			rec.stopped[c] = true
			stoppedCount++
		}
		iter++
		if iter > 1<<40 {
			return fmt.Errorf("sim: loop %d runaway", pl.ID)
		}
	}
	if exitCore < 0 {
		return &ValidationError{Loop: pl.ID, Iter: iter, Msg: "loop ended without an exit iteration"}
	}

	// Snapshot the final last-value registers and reopen a sequential
	// span.
	lp := &rec.tr.loops[len(rec.tr.loops)-1]
	for reg, lv := range rec.lastVals {
		lp.lastVals = append(lp.lastVals, regVal{reg: int32(reg), val: lv.val})
	}
	sortRegVals(lp.lastVals)
	rec.spanStart = len(rec.tr.runs)

	return exitLoop(pl, ctx, rec.mem, rec.regs, rec.lastVals, exitCore, exitIter, exitCode)
}

// runIteration executes one iteration on core c's register file,
// recording its instruction stream and enforcing the compiler
// guarantees: shared accesses only inside their segment after its wait,
// no private access to data another iteration shared, and exactly one
// signal per used segment.
func (rec *recorder) runIteration(pl *hcc.ParallelLoop, ls *loopStatic, c int, iter int64) (int64, error) {
	rf := rec.regs[c]
	bctx := rec.bctxs[c]
	if bctx == nil {
		bctx = interp.NewContextWithRegs(rec.prog, rec.mem, pl.Body, rf, iter)
		rec.bctxs[c] = bctx
	} else {
		bctx.Restart(pl.Body, rf, iter)
	}
	scr := &rec.scr
	scr.epoch++
	ep := scr.epoch
	var status int64 = -1

	var curBlk *ir.Block
	var base uint32
	for !bctx.Done() {
		if rec.steps >= rec.check {
			if err := rec.checkStep(); err != nil {
				return 0, err
			}
		}
		_, blk, idx := bctx.Frame()
		if blk != curBlk {
			curBlk, base = blk, rec.baseFor(blk, ls.lastValDefs)
		}
		rec.note(base, idx)
		m := &rec.tr.metas[base+uint32(idx)]

		switch m.cls {
		case clsWait:
			scr.waitEp[m.seg] = ep

		case clsSignal:
			s := m.seg
			if scr.sigEp[s] != ep {
				scr.sigEp[s] = ep
				scr.sigCnt[s] = 0
			}
			scr.sigCnt[s]++

		case clsShared:
			s := int(m.seg)
			in := &curBlk.Instrs[idx]
			addr := bctx.EffectiveAddr(in)
			if s >= len(scr.waitEp) || scr.waitEp[s] != ep {
				return 0, &ValidationError{Loop: pl.ID, Iter: iter,
					Msg: fmt.Sprintf("shared access (seg %d) before wait: %s", s, in.String())}
			}
			if w, ok := rec.lastW[addr]; ok && w.iter < iter && w.seg != s {
				return 0, &ValidationError{Loop: pl.ID, Iter: iter,
					Msg: fmt.Sprintf("addr %d crosses segments %d and %d", addr, w.seg, s)}
			}
			rec.addr(addr, pl.SlotAddrs[addr])
			if m.isStore {
				rec.lastW[addr] = lastWrite{iter: iter, seg: s}
			}

		case clsPriv:
			addr := bctx.EffectiveAddr(&curBlk.Instrs[idx])
			if w, ok := rec.lastW[addr]; ok && w.iter < iter && (m.isStore || w.seg >= 0) {
				return 0, &ValidationError{Loop: pl.ID, Iter: iter,
					Msg: fmt.Sprintf("private access to shared addr %d (writer iter %d seg %d)", addr, w.iter, w.seg)}
			}
			rec.addr(addr, false)
			if m.isStore {
				rec.lastW[addr] = lastWrite{iter: iter, seg: -1}
			}
		}

		lastVal := m.lastVal
		info := bctx.Step()
		rec.steps++
		if lastVal != ir.NoReg {
			if lv, seen := rec.lastVals[lastVal]; !seen || iter >= lv.iter {
				rec.lastVals[lastVal] = lastValRec{iter: iter, val: rf[lastVal]}
			}
		}
		if info.Returned {
			status = info.RetValue
		}
	}

	// Exactly-once signalling per used segment.
	for _, s := range ls.usedSegs {
		var cnt int32
		if scr.sigEp[s] == ep {
			cnt = scr.sigCnt[s]
		}
		if cnt != 1 {
			return 0, &ValidationError{Loop: pl.ID, Iter: iter,
				Msg: fmt.Sprintf("segment %d signalled %d times", s, cnt)}
		}
	}
	return status, nil
}

func sortRegVals(rv []regVal) {
	// Insertion sort: the snapshots are tiny (a handful of registers).
	for i := 1; i < len(rv); i++ {
		for j := i; j > 0 && rv[j].reg < rv[j-1].reg; j-- {
			rv[j], rv[j-1] = rv[j-1], rv[j]
		}
	}
}
