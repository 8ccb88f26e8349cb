package sim

// Replay re-times a recorded Trace under a (possibly different) Config
// without any functional execution: no interpreter, no register files,
// no validation maps. Every timing expression below mirrors the
// reference stepper (sim.go) exactly; the golden tests in replay_test.go
// pin bit-identical Results. The budget check positions are also
// replicated (once before every dynamic instruction, once before each
// loop dispatch) so a replay under a smaller MaxSteps fails at the same
// instruction with the same partial Result as a reference run would.
//
// Replayers are pooled: the cpu scoreboards, rings, memory
// hierarchies and scratch slices all survive across calls, so a
// steady-state replay allocates only its returned Result. The pool
// checks compatibility — a different core model drops the scoreboards,
// a different ring configuration drops the rings — so reuse can never
// change a cycle count.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"helixrc/internal/cpu"
	"helixrc/internal/ir"
	memsys "helixrc/internal/mem"
	"helixrc/internal/ringcache"
)

// Replay simulates the timing of a recorded run under arch. The trace
// fixes the dynamic behaviour, so arch must agree with the recording
// config on everything that shapes it: the core count (unless the trace
// has no parallel loops, which makes it core-count independent) — and
// implicitly the compiled program, which the caller keys the trace by.
// SlowStep needs the reference stepper and is rejected.
//
// Like Run, Replay polls ctx on the step-accounting path and returns
// ctx.Err() with the partial Result when cancelled.
func Replay(ctx context.Context, tr *Trace, arch Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if arch.SlowStep {
		return nil, errSlowReplay
	}
	if arch.Cores <= 0 {
		arch.Cores = 16
	}
	if len(tr.loops) > 0 && arch.Cores != tr.cores {
		return nil, fmt.Errorf("sim: trace recorded with %d cores cannot replay with %d", tr.cores, arch.Cores)
	}
	rep := replayerFromPool(ctx, tr, arch)
	err := rep.run()
	res := rep.res
	rep.release()
	return &res, err
}

// errSlowReplay rejects a SlowStep config: a trace has no functional
// state for the reference stepper to run on.
var errSlowReplay = errors.New("sim: cannot replay with SlowStep")

// replayer is the timing-only counterpart of the reference runner: its
// only inputs are the trace cursors, and its per-core buffers, rings and
// hierarchy are pooled across replays.
type replayer struct {
	stepBudget
	tr   *Trace
	arch Config
	hier *memsys.Hierarchy

	now int64
	res Result

	runCursor  int // next entry of tr.runs
	addrCursor int // next entry of tr.addrs

	// ringCfg is the ring configuration every loop in this replay uses
	// (node count and PerfectMem normalization resolved once); pooled
	// rings are only reused while it is unchanged.
	ringCfg ringcache.Config

	seqCore  *cpu.Core
	rings    map[int]*ringcache.Ring
	parCores []*cpu.Core
	coreTime []int64
	ranReal  []bool
	stopped  []bool
	convSig  []int64
	scr      segScratch
}

// ringConfig resolves the ring configuration a replay of arch uses for
// all its loops.
func ringConfig(arch Config) ringcache.Config {
	rc := arch.Ring
	rc.Nodes = arch.Cores
	if arch.PerfectMem {
		rc.LinkLatency, rc.InjectLatency, rc.OwnerL1Latency = 0, 0, 0
		rc.DataBandwidth, rc.SignalBandwidth = 0, 0
		rc.ArrayBytes = 0
	}
	return rc
}

// hierKey identifies a pooled hierarchy shape.
type hierKey struct {
	cores int
	cfg   memsys.Config
}

// hierPools maps hierKey -> *sync.Pool of *mem.Hierarchy. Hierarchies
// dominate per-run allocation (the L2 alone is >100k lines); pooling
// them across runs — including runs on other goroutines — is the
// single biggest allocation win.
var hierPools sync.Map

func hierFromPool(cores int, cfg memsys.Config) *memsys.Hierarchy {
	key := hierKey{cores: cores, cfg: cfg}
	if p, ok := hierPools.Load(key); ok {
		if v := p.(*sync.Pool).Get(); v != nil {
			h := v.(*memsys.Hierarchy)
			h.Reset()
			return h
		}
	}
	return memsys.NewHierarchy(cores, cfg)
}

// hierToPool returns a hierarchy to its shape's pool.
func hierToPool(h *memsys.Hierarchy, cores int, cfg memsys.Config) {
	if h == nil {
		return
	}
	key := hierKey{cores: cores, cfg: cfg}
	p, ok := hierPools.Load(key)
	if !ok {
		p, _ = hierPools.LoadOrStore(key, &sync.Pool{})
	}
	p.(*sync.Pool).Put(h)
}

// replayerPool recycles replayers across Replay calls.
var replayerPool sync.Pool

// replayerFromPool returns a replayer initialized for (tr, arch),
// dropping any pooled state the new configuration cannot reuse.
func replayerFromPool(ctx context.Context, tr *Trace, arch Config) *replayer {
	rep, _ := replayerPool.Get().(*replayer)
	if rep == nil {
		rep = &replayer{}
	}
	// cpu scoreboards are built for one core model.
	if arch.Core != rep.arch.Core {
		rep.seqCore = nil
		rep.parCores = nil
	}
	rc := ringConfig(arch)
	if rc != rep.ringCfg {
		rep.rings = nil
	}
	rep.ctx, rep.tr, rep.arch = ctx, tr, arch
	rep.ringCfg = rc
	rep.maxSteps = arch.effectiveMaxSteps()
	rep.now, rep.steps, rep.check = 0, 0, 0
	rep.runCursor, rep.addrCursor = 0, 0
	rep.res = Result{}
	if !arch.PerfectMem {
		rep.hier = hierFromPool(arch.Cores, arch.Mem)
	}
	if rep.seqCore == nil {
		rep.seqCore = cpu.NewCore(arch.Core, tr.maxRegs)
	} else {
		rep.seqCore.Grow(tr.maxRegs)
	}
	rep.seqCore.Reset(0)
	return rep
}

// release reclaims the hierarchy and parks the replayer for reuse,
// dropping references that would retain large object graphs. The
// scratch epoch stays monotonic across reuse, so stale segment stamps
// from a previous trace can never match.
func (rep *replayer) release() {
	hierToPool(rep.hier, rep.arch.Cores, rep.arch.Mem)
	rep.hier = nil
	rep.ctx, rep.tr = nil, nil
	replayerPool.Put(rep)
}

// run walks the trace once. The caller copies res out before releasing
// the replayer.
func (rep *replayer) run() error {
	tr := rep.tr
	for _, ev := range tr.events {
		if err := rep.seqSpan(rep.seqCore, int(ev.runs)); err != nil {
			return err
		}
		if ev.loop >= 0 {
			// The stepper's top-of-loop budget check fires once on the
			// loop-header dispatch.
			if rep.steps >= rep.check {
				if err := rep.checkStep(); err != nil {
					return err
				}
			}
			if err := rep.replayLoop(&tr.loops[ev.loop], rep.seqCore); err != nil {
				return err
			}
		}
	}
	rep.now++ // last instructions draining, as in runSequential
	rep.res.Cycles = rep.now
	rep.res.RetValue = tr.retValue
	if rep.hier != nil {
		rep.res.Mem = rep.hier.Stats
	}
	return nil
}

func (rep *replayer) memLat(core int, addr int64, write bool) int64 {
	if rep.arch.PerfectMem {
		return 1
	}
	return int64(rep.hier.Access(core, addr, write))
}

func (rep *replayer) ensurePerCore(n int) {
	if len(rep.parCores) >= n {
		return
	}
	rep.parCores = make([]*cpu.Core, n)
	rep.coreTime = make([]int64, n)
	rep.ranReal = make([]bool, n)
	rep.stopped = make([]bool, n)
}

func (rep *replayer) convBuf(n int) []int64 {
	if cap(rep.convSig) < n {
		rep.convSig = make([]int64, n)
	} else {
		rep.convSig = rep.convSig[:n]
		clear(rep.convSig)
	}
	return rep.convSig
}

func (rep *replayer) ringFor(cfg ringcache.Config, numSegs int) *ringcache.Ring {
	if rep.rings == nil {
		rep.rings = map[int]*ringcache.Ring{}
	}
	if ring, ok := rep.rings[numSegs]; ok {
		ring.Reset(numSegs)
		return ring
	}
	ring := ringcache.New(cfg, numSegs)
	rep.rings[numSegs] = ring
	return ring
}

// metaReady mirrors cpu.Core.OpReady over pre-decoded operands.
func metaReady(core *cpu.Core, m *instrMeta) int64 {
	switch m.nuses {
	case 0:
		return 0
	case 1:
		return core.RegReady(m.uses[0])
	default:
		t := core.RegReady(m.uses[0])
		if v := core.RegReady(m.uses[1]); v > t {
			t = v
		}
		for _, reg := range m.more {
			if v := core.RegReady(reg); v > t {
				t = v
			}
		}
		return t
	}
}

// seqSpan replays nruns block-runs of sequential code on core 0,
// mirroring runner.runSequential.
func (rep *replayer) seqSpan(core *cpu.Core, nruns int) error {
	tr := rep.tr
	branchCost := int64(rep.arch.Core.BranchCost)
	for k := 0; k < nruns; k++ {
		run := tr.runs[rep.runCursor]
		rep.runCursor++
		for off := run.off; off < run.off+run.n; off++ {
			if rep.steps >= rep.check {
				if err := rep.checkStep(); err != nil {
					return err
				}
			}
			m := &tr.metas[off]
			lat := m.lat
			if m.cls == clsShared || m.cls == clsPriv {
				addr := tr.addrs[rep.addrCursor]
				rep.addrCursor++
				lat = rep.memLat(0, addr, m.isStore)
			}
			issue, _ := core.IssueReg(m.dst, rep.now, metaReady(core, m), lat)
			rep.steps++
			rep.res.Instrs++
			if m.branches {
				rep.now = issue + branchCost
			} else {
				rep.now = issue
			}
		}
	}
	return nil
}

// replayLoop mirrors runLoop's timing: startup, round-robin scheduling
// driven by the recorded iteration statuses, drain, flush.
func (rep *replayer) replayLoop(lt *loopTrace, seqCore *cpu.Core) error {
	n := rep.arch.Cores
	rep.res.LoopInvocations++
	numSegs := int(lt.numSegs)

	// Startup: thread wake + one broadcast store (2 cycles) per live-in
	// slot. The stores themselves are functional and already in the past.
	start := rep.now + 12 + int64(n)/2 + 2*int64(lt.numSlots)

	rep.ensurePerCore(n)
	for c := 0; c < n; c++ {
		if rep.parCores[c] == nil {
			rep.parCores[c] = cpu.NewCore(rep.arch.Core, int(lt.numRegs))
		} else {
			rep.parCores[c].Grow(int(lt.numRegs))
		}
		rep.parCores[c].Reset(start)
		rep.coreTime[c] = start
		rep.ranReal[c] = false
		rep.stopped[c] = false
	}

	var ring *ringcache.Ring
	if rep.arch.DecoupleReg || rep.arch.DecoupleMem || rep.arch.DecoupleSync {
		ring = rep.ringFor(rep.ringCfg, numSegs)
	}
	convSig := rep.convBuf(numSegs)
	rep.scr.ensure(numSegs)
	c2c := int64(rep.arch.Mem.CacheToCache)
	if rep.arch.PerfectMem {
		c2c = 0
	}
	l1 := int64(rep.arch.Mem.L1Latency)

	stoppedCount := 0
	iterIdx := 0
	var iter int64
	for stoppedCount < n {
		c := int(iter % int64(n))
		if rep.stopped[c] {
			iter++
			continue
		}
		if iterIdx >= len(lt.iters) {
			return errors.New("sim: replay iteration stream exhausted (trace/config mismatch)")
		}
		it := &lt.iters[iterIdx]
		iterIdx++
		if err := rep.replayIteration(it, ring, convSig, rep.parCores[c], &rep.coreTime[c], c, c2c, l1); err != nil {
			return err
		}
		if it.status == 0 {
			rep.ranReal[c] = true
			rep.res.IterationsRun++
		} else {
			rep.stopped[c] = true
			stoppedCount++
		}
		iter++
		if iter > 1<<40 {
			return errors.New("sim: replay loop runaway")
		}
	}

	// End of loop: drain, flush.
	end := start
	for c := 0; c < n; c++ {
		if rep.coreTime[c] > end {
			end = rep.coreTime[c]
		}
	}
	for c := 0; c < n; c++ {
		idle := end - rep.coreTime[c]
		if rep.ranReal[c] {
			rep.res.Overheads.IterImbalance += idle
		} else {
			rep.res.Overheads.LowTripCount += end - start
		}
	}
	if ring != nil {
		end += ring.FlushCost()
		rep.res.Ring.Stores += ring.Stats.Stores
		rep.res.Ring.Loads += ring.Stats.Loads
		rep.res.Ring.LoadHits += ring.Stats.LoadHits
		rep.res.Ring.LoadMisses += ring.Stats.LoadMisses
		rep.res.Ring.Evictions += ring.Stats.Evictions
		rep.res.Ring.Signals += ring.Stats.Signals
		rep.res.Ring.StallCycles += ring.Stats.StallCycles
		rep.res.Ring.SignalStalls += ring.Stats.SignalStalls
	} else if rep.hier != nil {
		for c := 0; c < n; c++ {
			rep.hier.FlushDirty(c)
		}
		end += int64(rep.arch.Mem.L2Latency)
	}

	parCycles := end + 5 - rep.now // +5: live-out collection
	rep.res.ParallelCycles += parCycles
	rep.now = end + 5
	seqCore.Reset(rep.now)
	return nil
}

// replayIteration mirrors runner.runIteration minus everything
// functional: no interpreter step, no register values, no validation.
// The wait / signal / shared / private dispatch and every cycle
// expression are identical.
func (rep *replayer) replayIteration(it *iterTrace, ring *ringcache.Ring,
	convSig []int64, core *cpu.Core, coreTime *int64, c int,
	c2c, l1 int64) error {

	tr := rep.tr
	t := *coreTime
	scr := &rep.scr
	scr.epoch++
	ep := scr.epoch
	activeSegs := 0
	branchCost := int64(rep.arch.Core.BranchCost)

	for k := int32(0); k < it.runs; k++ {
		run := tr.runs[rep.runCursor]
		rep.runCursor++
		for off := run.off; off < run.off+run.n; off++ {
			if rep.steps >= rep.check {
				if err := rep.checkStep(); err != nil {
					return err
				}
			}
			m := &tr.metas[off]

			var issue int64
			switch m.cls {
			case clsWait:
				s := int(m.seg)
				var ready int64
				iss, _ := core.IssueReg(ir.NoReg, t, 0, 1)
				if rep.arch.DecoupleSync {
					ready = ring.WaitReady(s, c, iss+1)
				} else {
					ready = iss + 1 + c2c
					if convSig[s] > 0 {
						ready = max(ready, convSig[s]+2*c2c)
					}
				}
				core.Barrier(ready)
				rep.res.Overheads.DependenceWaiting += ready - (iss + 1)
				rep.res.Overheads.WaitSignal++
				t = ready
				if scr.waitEp[s] != ep {
					scr.waitEp[s] = ep
					activeSegs++
					rep.res.SegEntries++
				}
				issue = iss

			case clsSignal:
				s := int(m.seg)
				iss, _ := core.IssueReg(ir.NoReg, t, 0, 1)
				send := iss + 1
				if rep.arch.DecoupleSync {
					ring.Signal(s, c, send)
				} else {
					send += l1
					if send > convSig[s] {
						convSig[s] = send
					}
				}
				rep.res.Overheads.WaitSignal++
				if scr.waitEp[s] == ep && activeSegs > 0 {
					activeSegs--
				}
				t = iss
				issue = iss

			case clsShared:
				ai := rep.addrCursor
				addr := tr.addrs[ai]
				rep.addrCursor++
				write := m.isStore
				dec := rep.arch.DecoupleMem
				if tr.slotAt(ai) {
					dec = rep.arch.DecoupleReg
				}
				if ring != nil && dec {
					iss, _ := core.IssueReg(m.dst, t, metaReady(core, m), 1)
					if write {
						ring.Store(c, addr, iss+1)
					} else {
						done := ring.Load(c, addr, iss+1)
						core.SetRegReady(m.dst, done)
						rep.res.Overheads.Communication += max(0, done-(iss+2))
					}
					issue = iss
				} else {
					lat := rep.memLat(c, addr, write)
					iss, _ := core.IssueReg(m.dst, t, metaReady(core, m), lat)
					rep.res.Overheads.Communication += max(0, lat-l1)
					issue = iss
				}

			case clsPriv:
				addr := tr.addrs[rep.addrCursor]
				rep.addrCursor++
				lat := rep.memLat(c, addr, m.isStore)
				iss, _ := core.IssueReg(m.dst, t, metaReady(core, m), lat)
				rep.res.Overheads.Memory += max(0, lat-l1)
				issue = iss

			default:
				iss, _ := core.IssueReg(m.dst, t, metaReady(core, m), m.lat)
				issue = iss
			}

			if m.added {
				rep.res.Overheads.AddedInstr++
			}
			if activeSegs > 0 {
				rep.res.SeqSegInstrs++
			}
			rep.steps++
			rep.res.Instrs++
			rep.res.ParallelInstrs++

			if m.branches {
				t = issue + branchCost
			} else {
				t = issue
			}
		}
	}
	*coreTime = t + 1
	return nil
}
