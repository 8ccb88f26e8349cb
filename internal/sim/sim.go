package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"helixrc/internal/cpu"
	"helixrc/internal/hcc"
	"helixrc/internal/interp"
	"helixrc/internal/ir"
	memsys "helixrc/internal/mem"
	"helixrc/internal/ringcache"
)

// ErrBudget is returned when the simulation exceeds its step budget.
var ErrBudget = errors.New("sim: step budget exceeded")

// ctxCheckEvery is how many simulated instructions pass between context
// polls on the budget-check path. At replay speeds (millions of
// instructions per second) 64k steps is well under a millisecond, so a
// cancelled or deadline-expired context is observed promptly without a
// measurable per-step cost: the hot loops compare steps against a single
// precomputed bound exactly as the pure budget check did.
const ctxCheckEvery = 1 << 16

// Run simulates entry(args...) on the platform. comp may be nil, in which
// case the program runs purely sequentially on core 0 (the baseline).
//
// Run watches ctx on the step-accounting path: a cancelled context makes
// it return ctx.Err() (with the partial Result accumulated so far),
// bounded by ctxCheckEvery simulated instructions of delay. A nil ctx is
// treated as context.Background().
//
// The default path is Record followed by nothing: Record executes the
// program functionally, captures a Trace and times it with Replay; Run
// returns that Result and drops the trace. Config.SlowStep selects the
// retained reference stepper instead, which interleaves functional
// execution and timing on every dynamic instruction and re-derives
// everything as it goes. Both produce bit-identical Results, partial
// Results of failed runs included.
func Run(ctx context.Context, prog *ir.Program, comp *hcc.Compiled, entry *ir.Function, arch Config, args ...int64) (*Result, error) {
	if arch.SlowStep {
		return runReference(ctx, prog, comp, entry, arch, args)
	}
	res, _, err := Record(ctx, prog, comp, entry, arch, args...)
	return res, err
}

// stepBudget is the per-step guard shared by the reference stepper, the
// functional recorder and the replayer: the hot loops compare steps
// against check (initially 0, so the first instruction lands in
// checkStep) and only then pay for the real budget test and a context
// poll. Because check never exceeds maxSteps, ErrBudget fires at exactly
// the instruction a direct steps >= maxSteps comparison would.
type stepBudget struct {
	ctx      context.Context
	steps    int64
	maxSteps int64
	check    int64 // next steps value at which checkStep must run
}

func (b *stepBudget) checkStep() error {
	if b.steps >= b.maxSteps {
		return ErrBudget
	}
	if err := b.ctx.Err(); err != nil {
		return err
	}
	b.check = min(b.steps+ctxCheckEvery, b.maxSteps)
	return nil
}

// loopHeaders maps each parallelized loop's header block to its plan.
func loopHeaders(comp *hcc.Compiled) map[*ir.Block]*hcc.ParallelLoop {
	m := map[*ir.Block]*hcc.ParallelLoop{}
	if comp != nil {
		for _, pl := range comp.Loops {
			m[pl.Header] = pl
		}
	}
	return m
}

// maxRegs is the widest register file in the program: the sequential
// core's scoreboard width.
func maxRegs(prog *ir.Program) int {
	n := 0
	for _, f := range prog.Funcs {
		n = max(n, f.NumRegs)
	}
	return n
}

// runReference is the retained reference stepper (Config.SlowStep):
// functional execution and timing in one pass, every structure
// allocated fresh. It is the oracle the replayers are tested against,
// and it produces the partial Result of a run that fails before its
// trace is complete.
func runReference(ctx context.Context, prog *ir.Program, comp *hcc.Compiled, entry *ir.Function, arch Config, args []int64) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if arch.Cores <= 0 {
		arch.Cores = 16
	}
	r := &runner{
		stepBudget: stepBudget{ctx: ctx, maxSteps: arch.effectiveMaxSteps()},
		prog:       prog, arch: arch,
		mem:       interp.NewMemory(prog),
		headerMap: loopHeaders(comp),
		maxRegs:   maxRegs(prog),
	}
	if !arch.PerfectMem {
		r.hier = memsys.NewHierarchy(arch.Cores, arch.Mem)
	}
	err := r.runSequential(entry, args)
	if err == nil {
		r.res.Cycles = r.now
		if r.hier != nil {
			r.res.Mem = r.hier.Stats
		}
	}
	// A copy, so a held Result does not keep the runner's memory image
	// and hierarchy alive.
	res := r.res
	return &res, err
}

type runner struct {
	stepBudget
	prog *ir.Program
	arch Config
	mem  *interp.Memory
	hier *memsys.Hierarchy

	headerMap map[*ir.Block]*hcc.ParallelLoop
	maxRegs   int

	now int64
	res Result
}

// memLat returns the latency of a private (non-ring) access.
func (r *runner) memLat(core int, addr int64, write bool) int64 {
	if r.arch.PerfectMem {
		return 1
	}
	return int64(r.hier.Access(core, addr, write))
}

// runSequential executes code outside parallel loops on core 0.
func (r *runner) runSequential(entry *ir.Function, args []int64) error {
	core := cpu.NewCore(r.arch.Core, r.maxRegs)
	core.Reset(0)
	ctx := interp.NewContext(r.prog, r.mem, entry, args...)

	for !ctx.Done() {
		if r.steps >= r.check {
			if err := r.checkStep(); err != nil {
				return err
			}
		}
		_, blk, idx := ctx.Frame()
		if idx == 0 {
			if pl := r.headerMap[blk]; pl != nil {
				if err := r.runLoop(pl, ctx, core); err != nil {
					return err
				}
				continue
			}
		}
		in := ctx.Next()
		opReady := core.OpReady(in)
		var lat int64 = cpu.Latency(in.Op)
		if in.Op.IsMem() {
			// Sequential memory stalls are not "overhead": they exist in
			// the baseline too.
			lat = r.memLat(0, ctx.EffectiveAddr(in), in.Op == ir.OpStore)
		} else if in.Op == ir.OpCall && in.Extern != nil && in.Extern.Latency > 0 {
			lat = int64(in.Extern.Latency)
		}
		issue, _ := core.Issue(in, r.now, opReady, lat)
		info := ctx.Step()
		r.steps++
		r.res.Instrs++
		if info.Branched {
			r.now = issue + int64(r.arch.Core.BranchCost)
		} else {
			r.now = issue
		}
		if info.Returned {
			r.res.RetValue = info.RetValue
		}
	}
	// Account for the last instructions draining.
	r.now++
	return nil
}

// decoupled reports whether a shared access travels through the ring
// cache.
func (r *runner) decoupled(pl *hcc.ParallelLoop, addr int64) bool {
	if pl.SlotAddrs[addr] {
		return r.arch.DecoupleReg
	}
	return r.arch.DecoupleMem
}

type lastWrite struct {
	iter int64
	seg  int
}

// lastValRec tracks the most recent definition of a last-value register.
type lastValRec struct {
	iter int64
	val  int64
}

// runLoop simulates one invocation of a parallelized loop: startup cost
// and live-in broadcast, round-robin iterations, drain, flush and
// architectural state restore.
func (r *runner) runLoop(pl *hcc.ParallelLoop, ctx *interp.Context, seqCore *cpu.Core) error {
	n := r.arch.Cores
	r.res.LoopInvocations++
	body := pl.Body

	// Which segments actually have synchronization in the body.
	segsUsed := map[int]bool{}
	lastValDefs := map[int32]ir.Reg{}
	for _, b := range body.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpSignal {
				segsUsed[b.Instrs[i].Seg] = true
			}
		}
	}
	for reg, uids := range pl.LastValue {
		for _, uid := range uids {
			lastValDefs[uid] = reg
		}
	}

	// Startup: wake the pinned worker threads and broadcast live-ins, 2
	// cycles per slot store (workers spin between loops in the HELIX
	// execution model, so dispatch is cheap).
	start := r.now + 12 + int64(n)/2 + 2*int64(len(pl.SlotOf))
	enterLoop(pl, ctx, r.mem)

	regs := make([][]int64, n)
	cores := make([]*cpu.Core, n)
	coreTime := make([]int64, n)
	ranReal := make([]bool, n)
	stopped := make([]bool, n)
	for c := 0; c < n; c++ {
		regs[c] = make([]int64, body.NumRegs)
		initLoopRegs(pl, ctx, regs[c])
		cores[c] = cpu.NewCore(r.arch.Core, body.NumRegs)
		cores[c].Reset(start)
		coreTime[c] = start
	}

	var ring *ringcache.Ring
	if r.arch.DecoupleReg || r.arch.DecoupleMem || r.arch.DecoupleSync {
		ring = ringcache.New(ringConfig(r.arch), pl.NumSegs)
	}
	// Conventional synchronization: prefix-max of signal send times.
	convSig := make([]int64, pl.NumSegs)
	c2c := int64(r.arch.Mem.CacheToCache)
	if r.arch.PerfectMem {
		c2c = 0
	}
	l1 := int64(r.arch.Mem.L1Latency)

	lastW := map[int64]lastWrite{}
	lastVals := map[ir.Reg]lastValRec{}

	exitIter := int64(-1)
	exitCode := int64(-1)
	exitCore := -1
	stoppedCount := 0

	var iter int64
	for stoppedCount < n {
		c := int(iter % int64(n))
		if stopped[c] {
			iter++
			continue
		}
		status, err := r.runIteration(pl, ring, convSig, segsUsed, lastValDefs,
			regs[c], cores[c], &coreTime[c], c, iter, c2c, l1, lastW, lastVals)
		if err != nil {
			return err
		}
		switch {
		case status == 0:
			ranReal[c] = true
			r.res.IterationsRun++
		case status == 1: // not run
			stopped[c] = true
			stoppedCount++
		default: // exited via edge status-2
			// The exiting iteration only ran the loop's exit evaluation
			// (or a partial body on a break); it does not count as a full
			// iteration, and on counted loops every core eventually
			// reaches one.
			if exitIter < 0 {
				exitIter, exitCode, exitCore = iter, status-2, c
			}
			stopped[c] = true
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

	// End of loop: drain, flush, restore.
	end := start
	for c := 0; c < n; c++ {
		if coreTime[c] > end {
			end = coreTime[c]
		}
	}
	for c := 0; c < n; c++ {
		idle := end - coreTime[c]
		if ranReal[c] {
			r.res.Overheads.IterImbalance += idle
		} else {
			r.res.Overheads.LowTripCount += end - start
		}
	}
	if ring != nil {
		end += ring.FlushCost()
		r.res.Ring.Stores += ring.Stats.Stores
		r.res.Ring.Loads += ring.Stats.Loads
		r.res.Ring.LoadHits += ring.Stats.LoadHits
		r.res.Ring.LoadMisses += ring.Stats.LoadMisses
		r.res.Ring.Evictions += ring.Stats.Evictions
		r.res.Ring.Signals += ring.Stats.Signals
		r.res.Ring.StallCycles += ring.Stats.StallCycles
		r.res.Ring.SignalStalls += ring.Stats.SignalStalls
	} else if r.hier != nil {
		for c := 0; c < n; c++ {
			r.hier.FlushDirty(c)
		}
		end += int64(r.arch.Mem.L2Latency)
	}

	if err := exitLoop(pl, ctx, r.mem, regs, lastVals, exitCore, exitIter, exitCode); err != nil {
		return err
	}

	parCycles := end + 5 - r.now // +5: live-out collection
	r.res.ParallelCycles += parCycles
	r.now = end + 5
	seqCore.Reset(r.now)
	return nil
}

// enterLoop is a loop invocation's functional startup: arm an uncounted
// loop's control word and broadcast the shared live-ins to their slots.
func enterLoop(pl *hcc.ParallelLoop, ctx *interp.Context, mem *interp.Memory) {
	if !pl.Counted {
		mem.Store(pl.CtlAddr, math.MaxInt64)
	}
	for reg, slot := range pl.SlotOf {
		mem.Store(slot, ctx.Reg(reg))
	}
}

// initLoopRegs initializes a core's body register file from the
// continuing context: its registers, the recompute shadows and the
// reduction identities.
func initLoopRegs(pl *hcc.ParallelLoop, ctx *interp.Context, rf []int64) {
	copy(rf, ctx.Regs())
	for reg, rule := range pl.Recompute {
		rf[rule.Shadow] = ctx.Reg(reg)
	}
	for reg, kind := range pl.Reductions {
		rf[reg] = kind.Identity()
	}
}

// exitLoop restores a finished invocation's architectural state into the
// continuing context — the exiting core's registers, the reductions
// combined across cores, the slot values and the last values — and
// resumes it at the exit the exiting iteration took. The context's own
// registers are untouched while the loop runs, so they still hold the
// reductions' initial values.
func exitLoop(pl *hcc.ParallelLoop, ctx *interp.Context, mem *interp.Memory, regs [][]int64,
	lastVals map[ir.Reg]lastValRec, exitCore int, exitIter, exitCode int64) error {
	reduced := make(map[ir.Reg]int64, len(pl.Reductions))
	for reg, kind := range pl.Reductions {
		acc := ctx.Reg(reg)
		for _, rf := range regs {
			acc = kind.Combine(acc, rf[reg])
		}
		reduced[reg] = acc
	}
	copy(ctx.Regs(), regs[exitCore])
	for reg, v := range reduced {
		ctx.SetReg(reg, v)
	}
	for reg, slot := range pl.SlotOf {
		ctx.SetReg(reg, mem.Load(slot))
	}
	for reg := range pl.LastValue {
		if lv, ok := lastVals[reg]; ok {
			ctx.SetReg(reg, lv.val)
		}
	}
	if int(exitCode) >= len(pl.ExitTargets) {
		return &ValidationError{Loop: pl.ID, Iter: exitIter, Msg: "bad exit code"}
	}
	ctx.JumpTo(pl.ExitTargets[exitCode])
	return nil
}

// runIteration simulates one iteration functionally and in time. It
// re-derives operand sets, latencies and traffic classes on every
// dynamic instruction and allocates its bookkeeping fresh; Replay and
// ReplayBatch must match it bit for bit.
func (r *runner) runIteration(pl *hcc.ParallelLoop, ring *ringcache.Ring,
	convSig []int64, segsUsed map[int]bool, lastValDefs map[int32]ir.Reg,
	rf []int64, core *cpu.Core, coreTime *int64, c int, iter int64,
	c2c, l1 int64, lastW map[int64]lastWrite,
	lastVals map[ir.Reg]lastValRec) (int64, error) {

	body := pl.Body
	bctx := interp.NewContextWithRegs(r.prog, r.mem, body, rf, iter)
	t := *coreTime
	waitDone := make(map[int]bool, pl.NumSegs)
	sigCount := make(map[int]int, pl.NumSegs)
	activeSegs := 0
	var status int64 = -1

	for !bctx.Done() {
		if r.steps >= r.check {
			if err := r.checkStep(); err != nil {
				return 0, err
			}
		}
		in := bctx.Next()
		opReady := core.OpReady(in)

		var issue int64
		switch {
		case in.Op == ir.OpWait:
			s := in.Seg
			var ready int64
			iss, _ := core.Issue(in, t, 0, 1)
			if r.arch.DecoupleSync {
				ready = ring.WaitReady(s, c, iss+1)
			} else {
				// Lazy pull-based synchronization: the consumer polls a
				// flag line. The first poll costs a cache-to-cache fetch
				// even when the signal is long since set; if the producer
				// has not signalled yet, the producer's store invalidates
				// the polled copy and the consumer fetches again.
				ready = iss + 1 + c2c
				if convSig[s] > 0 {
					ready = max(ready, convSig[s]+2*c2c)
				}
			}
			core.Barrier(ready)
			r.res.Overheads.DependenceWaiting += ready - (iss + 1)
			r.res.Overheads.WaitSignal++
			t = ready
			if !waitDone[s] {
				waitDone[s] = true
				activeSegs++
				r.res.SegEntries++
			}
			issue = iss

		case in.Op == ir.OpSignal:
			s := in.Seg
			iss, _ := core.Issue(in, t, 0, 1)
			send := iss + 1
			if r.arch.DecoupleSync {
				ring.Signal(s, c, send)
			} else {
				// Signal via a memory flag: producer-side store.
				send += l1
				if send > convSig[s] {
					convSig[s] = send
				}
			}
			sigCount[s]++
			r.res.Overheads.WaitSignal++
			if waitDone[s] && activeSegs > 0 {
				activeSegs--
			}
			t = iss
			issue = iss

		case in.Op.IsMem() && in.SharedSeg >= 0:
			s := in.SharedSeg
			addr := bctx.EffectiveAddr(in)
			write := in.Op == ir.OpStore
			// Compiler-guarantee validation.
			if !waitDone[s] {
				return 0, &ValidationError{Loop: pl.ID, Iter: iter,
					Msg: fmt.Sprintf("shared access (seg %d) before wait: %s", s, in.String())}
			}
			if w, ok := lastW[addr]; ok && w.iter < iter && w.seg != s {
				return 0, &ValidationError{Loop: pl.ID, Iter: iter,
					Msg: fmt.Sprintf("addr %d crosses segments %d and %d", addr, w.seg, s)}
			}
			if ring != nil && r.decoupled(pl, addr) {
				iss, _ := core.Issue(in, t, opReady, 1)
				if write {
					// Injection is decoupled: the core continues while the
					// value circulates.
					ring.Store(c, addr, iss+1)
				} else {
					done := ring.Load(c, addr, iss+1)
					core.SetRegReady(in.Dst, done)
					r.res.Overheads.Communication += max(0, done-(iss+2))
				}
				issue = iss
			} else {
				lat := r.memLat(c, addr, write)
				iss, _ := core.Issue(in, t, opReady, lat)
				r.res.Overheads.Communication += max(0, lat-l1)
				issue = iss
			}
			if write {
				lastW[addr] = lastWrite{iter: iter, seg: s}
			}

		case in.Op.IsMem():
			addr := bctx.EffectiveAddr(in)
			write := in.Op == ir.OpStore
			if w, ok := lastW[addr]; ok && w.iter < iter && (write || w.seg >= 0) {
				return 0, &ValidationError{Loop: pl.ID, Iter: iter,
					Msg: fmt.Sprintf("private access to shared addr %d (writer iter %d seg %d)", addr, w.iter, w.seg)}
			}
			lat := r.memLat(c, addr, write)
			iss, _ := core.Issue(in, t, opReady, lat)
			r.res.Overheads.Memory += max(0, lat-l1)
			if write {
				lastW[addr] = lastWrite{iter: iter, seg: -1}
			}
			issue = iss

		default:
			lat := cpu.Latency(in.Op)
			if in.Op == ir.OpCall && in.Extern != nil && in.Extern.Latency > 0 {
				lat = int64(in.Extern.Latency)
			}
			iss, _ := core.Issue(in, t, opReady, lat)
			issue = iss
		}

		if in.Origin < 0 && !in.Op.IsSync() {
			r.res.Overheads.AddedInstr++
		}
		if activeSegs > 0 {
			r.res.SeqSegInstrs++
		}

		uid := in.UID
		info := bctx.Step()
		r.steps++
		r.res.Instrs++
		r.res.ParallelInstrs++

		if reg, ok := lastValDefs[uid]; ok {
			if rec, seen := lastVals[reg]; !seen || iter >= rec.iter {
				lastVals[reg] = lastValRec{iter: iter, val: rf[reg]}
			}
		}

		if info.Branched {
			t = issue + int64(r.arch.Core.BranchCost)
		} else {
			t = issue
		}
		if info.Returned {
			status = info.RetValue
		}
	}

	// Exactly-once signalling per used segment.
	for s := range segsUsed {
		if sigCount[s] != 1 {
			return 0, &ValidationError{Loop: pl.ID, Iter: iter,
				Msg: fmt.Sprintf("segment %d signalled %d times", s, sigCount[s])}
		}
	}
	*coreTime = t + 1
	return status, nil
}
