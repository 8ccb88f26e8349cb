package sim

// Batched retiming: one trace traversal re-times N architecture
// configurations at once. The traversal — cursors, iteration
// scheduling, segment scratch — is driven entirely by the recorded
// stream, so it is identical for every config that can legally replay
// the trace; only the timing state differs. ReplayBatch therefore keeps
// one shared walker and a struct-of-arrays of per-config "lanes"
// (scoreboards, ring, hierarchy, clocks), decodes each instruction
// once, and advances every live lane under it.
//
// Per-lane results are bit-identical to N independent Replay calls —
// including the failure paths. Budget exhaustion freezes exactly the
// lanes whose MaxSteps ran out, at the same instruction solo Replay
// stops at, with the same partial Result; the rest keep going. Context
// polls stay on solo's step grid (multiples of ctxCheckEvery) so a
// cancellation observed by the batch is observed at the same stream
// position a solo replay would observe it. The golden equivalence tests
// in replay_batch_test.go pin all of this.

import (
	"context"
	"errors"
	"fmt"

	"helixrc/internal/cpu"
	"helixrc/internal/ir"
	memsys "helixrc/internal/mem"
	"helixrc/internal/ringcache"
)

// errBatchDone is an internal sentinel: every lane has frozen, so the
// traversal can stop early. It never escapes to callers — per-lane
// errors are reported in the errs slice.
var errBatchDone = errors.New("sim: batch drained")

// ReplayBatch re-times tr under every config in archs with a single
// trace traversal, returning per-config Results and errors (both
// indexed like archs). Each (Result, error) pair is bit-identical to
// what Replay(ctx, tr, archs[i]) returns: invalid configs get a nil
// Result and the same validation error; configs whose MaxSteps runs out
// mid-trace get ErrBudget with the same truncated partial Result; a
// context cancellation freezes every still-live lane with ctx.Err() at
// the same stream position solo replays would stop at.
//
// Because the traversal is shared, all valid configs must agree on the
// core count; configs that disagree with the batch's core count are
// rejected with the same error text Replay uses for a core-count
// mismatch with the trace.
func ReplayBatch(ctx context.Context, tr *Trace, archs []Config) ([]*Result, []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]*Result, len(archs))
	errs := make([]error, len(archs))

	b := &batchReplayer{ctx: ctx, tr: tr}
	b.lanes = make([]batchLane, 0, len(archs))
	for i, arch := range archs {
		if arch.SlowStep {
			errs[i] = errSlowReplay
			continue
		}
		if arch.Cores <= 0 {
			arch.Cores = 16
		}
		if len(tr.loops) > 0 && arch.Cores != tr.cores {
			errs[i] = fmt.Errorf("sim: trace recorded with %d cores cannot replay with %d", tr.cores, arch.Cores)
			continue
		}
		if b.cores == 0 {
			b.cores = arch.Cores
		} else if arch.Cores != b.cores {
			errs[i] = fmt.Errorf("sim: trace recorded with %d cores cannot replay with %d", b.cores, arch.Cores)
			continue
		}
		b.lanes = append(b.lanes, newBatchLane(i, arch, tr))
	}
	if len(b.lanes) == 0 {
		return results, errs
	}
	b.live = make([]*batchLane, len(b.lanes))
	groups := map[memProfile]int{}
	for li := range b.lanes {
		ln := &b.lanes[li]
		b.live[li] = ln
		if ln.arch.PerfectMem {
			continue
		}
		p := memProfile{
			mem:    ln.arch.Mem,
			anyDec: ln.decReg || ln.decMem || ln.decSync,
			decReg: ln.decReg,
			decMem: ln.decMem,
		}
		gid, ok := groups[p]
		if !ok {
			gid = len(b.groupLeader)
			groups[p] = gid
			b.groupLeader = append(b.groupLeader, ln)
			ln.hier = hierFromPool(b.cores, ln.arch.Mem)
		}
		ln.memGroup = gid
	}
	b.groupLat = make([]int64, len(b.groupLeader))
	b.run()
	for li := range b.lanes {
		ln := &b.lanes[li]
		r := ln.res
		results[ln.idx] = &r
		errs[ln.idx] = ln.err
	}
	return results, errs
}

// batchLane is the per-config timing state: everything a solo replayer
// owns except the trace cursors and step accounting, which are shared.
type batchLane struct {
	idx  int // position in the caller's archs slice
	arch Config
	hier *memsys.Hierarchy

	maxSteps int64
	now      int64 // sequential clock (core 0)
	t        int64 // current iteration's core clock, within a loop
	start    int64 // current loop's startup time
	res      Result
	err      error

	seqCore  *cpu.Core
	parCores []*cpu.Core
	coreTime []int64
	ringCfg  ringcache.Config
	rings    map[int]*ringcache.Ring
	ring     *ringcache.Ring // active loop's ring (nil on conventional lanes)
	convSig  []int64

	// memGroup indexes the lane's memory-sharing group (-1 for
	// PerfectMem lanes, which have no hierarchy). Lanes with identical
	// memory config and decoupling issue the exact same hierarchy access
	// sequence, so one leader lane per group owns the hierarchy and the
	// rest reuse its latencies — the dominant saving of batching.
	memGroup int

	decReg, decMem, decSync bool
	c2c, l1, branchCost     int64
}

func newBatchLane(idx int, arch Config, tr *Trace) batchLane {
	ln := batchLane{
		idx:        idx,
		arch:       arch,
		maxSteps:   arch.effectiveMaxSteps(),
		ringCfg:    ringConfig(arch),
		branchCost: int64(arch.Core.BranchCost),
		c2c:        int64(arch.Mem.CacheToCache),
		l1:         int64(arch.Mem.L1Latency),
		decReg:     arch.DecoupleReg,
		decMem:     arch.DecoupleMem,
		decSync:    arch.DecoupleSync,
		memGroup:   -1,
		seqCore:    cpu.NewCore(arch.Core, tr.maxRegs),
	}
	if arch.PerfectMem {
		ln.c2c = 0
	}
	return ln
}

// memProfile identifies lanes whose hierarchy access sequences (and
// therefore latencies and stats) are provably identical: same memory
// config, and the same shared-access routing — whether a ring exists at
// all, and which access kinds it absorbs. Ring parameters and the core
// model shift timing, never the access stream, so they stay out.
type memProfile struct {
	mem            memsys.Config
	anyDec         bool
	decReg, decMem bool
}

// latFor resolves one hierarchy access latency for a lane: group
// leaders (hierarchy owners) access and publish, followers reuse the
// leader's value. Live-lane order keeps each group's leader first.
func (b *batchReplayer) latFor(ln *batchLane, c int, addr int64, write bool) int64 {
	if ln.hier != nil {
		lat := int64(ln.hier.Access(c, addr, write))
		b.groupLat[ln.memGroup] = lat
		return lat
	}
	if ln.memGroup < 0 {
		return 1 // PerfectMem
	}
	return b.groupLat[ln.memGroup]
}

func (ln *batchLane) ensurePerCore(n int) {
	if len(ln.parCores) >= n {
		return
	}
	ln.parCores = make([]*cpu.Core, n)
	ln.coreTime = make([]int64, n)
}

func (ln *batchLane) convBuf(n int) {
	if cap(ln.convSig) < n {
		ln.convSig = make([]int64, n)
	} else {
		ln.convSig = ln.convSig[:n]
		clear(ln.convSig)
	}
}

func (ln *batchLane) ringFor(numSegs int) *ringcache.Ring {
	if ln.rings == nil {
		ln.rings = map[int]*ringcache.Ring{}
	}
	if ring, ok := ln.rings[numSegs]; ok {
		ring.Reset(numSegs)
		return ring
	}
	ring := ringcache.New(ln.ringCfg, numSegs)
	ln.rings[numSegs] = ring
	return ring
}

// finish is the shared post-dispatch bookkeeping of one dynamic
// instruction on one lane, mirroring the tail of replayIteration's
// instruction loop.
func (ln *batchLane) finish(issue int64, inSeg, added, branches bool) {
	if added {
		ln.res.Overheads.AddedInstr++
	}
	if inSeg {
		ln.res.SeqSegInstrs++
	}
	ln.res.Instrs++
	ln.res.ParallelInstrs++
	if branches {
		ln.t = issue + ln.branchCost
	} else {
		ln.t = issue
	}
}

// batchReplayer walks the trace once for all lanes. The stream-driven
// state (cursors, step count, iteration scheduling, segment scratch) is
// shared; live holds the indices of lanes still being advanced, in
// stable order.
type batchReplayer struct {
	ctx   context.Context
	tr    *Trace
	cores int

	steps int64
	check int64 // next steps value at which sharedCheck must run

	runCursor  int
	addrCursor int

	lanes []batchLane
	live  []*batchLane // still-advancing lanes, in stable lane order

	// groupLeader[g] is the live lane owning group g's hierarchy (always
	// the group's first live lane); groupLat[g] is the latency it
	// published for the instruction being processed.
	groupLeader []*batchLane
	groupLat    []int64

	ranReal []bool
	stopped []bool
	scr     segScratch
}

// freeze retires live[i]: the lane keeps its partial Result exactly as
// a solo replay's error return would (no Cycles, no memory stats), and
// stops being advanced. A frozen group leader hands its hierarchy to
// the group's next live lane — whose own hierarchy, had it owned one,
// would be in exactly this state — or back to the pool when none
// remains.
func (b *batchReplayer) freeze(i int, err error) {
	ln := b.live[i]
	ln.err = err
	b.live = append(b.live[:i], b.live[i+1:]...)
	if ln.hier != nil {
		var promoted *batchLane
		for _, lo := range b.live {
			if lo.memGroup == ln.memGroup {
				promoted = lo
				break
			}
		}
		if promoted != nil {
			promoted.hier = ln.hier
			b.groupLeader[ln.memGroup] = promoted
		} else {
			hierToPool(ln.hier, ln.arch.Mem)
		}
		ln.hier = nil
	}
}

// freezeAll retires every live lane with err and returns err so the
// traversal aborts.
func (b *batchReplayer) freezeAll(err error) error {
	for len(b.live) > 0 {
		b.freeze(0, err)
	}
	return err
}

// sharedCheck is the batch form of checkStep, entered when steps
// crosses the precomputed bound. Per-lane budget exhaustion is tested
// before the context poll (checkStep's order), and the poll happens
// only on solo's grid — multiples of ctxCheckEvery — so cancellation is
// observed at the same stream positions a solo replay observes it.
func (b *batchReplayer) sharedCheck() error {
	for i := 0; i < len(b.live); {
		if b.steps >= b.live[i].maxSteps {
			b.freeze(i, ErrBudget)
			continue // freeze shifted live[i+1:] down
		}
		i++
	}
	if len(b.live) == 0 {
		return errBatchDone
	}
	if b.steps%ctxCheckEvery == 0 {
		if err := b.ctx.Err(); err != nil {
			return b.freezeAll(err)
		}
	}
	// Next stop: the next grid point, or the earliest live budget.
	next := (b.steps/ctxCheckEvery + 1) * ctxCheckEvery
	for _, ln := range b.live {
		if ln.maxSteps < next {
			next = ln.maxSteps
		}
	}
	b.check = next
	return nil
}

// run walks the whole trace, mirroring replayer.run.
func (b *batchReplayer) run() {
	tr := b.tr
	for _, ev := range tr.events {
		if err := b.seqSpan(int(ev.runs)); err != nil {
			return
		}
		if ev.loop >= 0 {
			if b.steps >= b.check {
				if err := b.sharedCheck(); err != nil {
					return
				}
			}
			if err := b.replayLoop(&tr.loops[ev.loop]); err != nil {
				return
			}
		}
	}
	for _, ln := range b.live {
		ln.now++ // last instructions draining, as in runSequential
		ln.res.Cycles = ln.now
		ln.res.RetValue = tr.retValue
		if ln.memGroup >= 0 {
			// Followers read their group leader's stats — identical to
			// what their own hierarchy would have accumulated.
			ln.res.Mem = b.groupLeader[ln.memGroup].hier.Stats
		}
	}
	for _, ln := range b.live {
		if ln.hier != nil {
			hierToPool(ln.hier, ln.arch.Mem)
			ln.hier = nil
		}
	}
}

// seqSpan replays nruns block-runs of sequential code on every live
// lane's core 0, mirroring replayer.seqSpan.
func (b *batchReplayer) seqSpan(nruns int) error {
	tr := b.tr
	for k := 0; k < nruns; k++ {
		run := tr.runs[b.runCursor]
		b.runCursor++
		for off := run.off; off < run.off+run.n; off++ {
			if b.steps >= b.check {
				if err := b.sharedCheck(); err != nil {
					return err
				}
			}
			m := &tr.metas[off]
			isMem := m.cls == clsShared || m.cls == clsPriv
			var addr int64
			if isMem {
				addr = tr.addrs[b.addrCursor]
				b.addrCursor++
			}
			for _, ln := range b.live {
				lat := m.lat
				if isMem {
					lat = b.latFor(ln, 0, addr, m.isStore)
				}
				issue, _ := ln.seqCore.IssueReg(m.dst, ln.now, metaReady(ln.seqCore, m), lat)
				ln.res.Instrs++
				if m.branches {
					ln.now = issue + ln.branchCost
				} else {
					ln.now = issue
				}
			}
			b.steps++
		}
	}
	return nil
}

// replayLoop mirrors replayer.replayLoop with per-lane timing.
func (b *batchReplayer) replayLoop(lt *loopTrace) error {
	n := b.cores
	numSegs := int(lt.numSegs)

	for _, ln := range b.live {
		ln.res.LoopInvocations++
		ln.start = ln.now + 12 + int64(n)/2 + 2*int64(lt.numSlots)
		ln.ensurePerCore(n)
		for c := 0; c < n; c++ {
			if ln.parCores[c] == nil {
				ln.parCores[c] = cpu.NewCore(ln.arch.Core, int(lt.numRegs))
			} else {
				ln.parCores[c].Grow(int(lt.numRegs))
			}
			ln.parCores[c].Reset(ln.start)
			ln.coreTime[c] = ln.start
		}
		ln.ring = nil
		if ln.decReg || ln.decMem || ln.decSync {
			ln.ring = ln.ringFor(numSegs)
		}
		ln.convBuf(numSegs)
	}
	if len(b.ranReal) < n {
		b.ranReal = make([]bool, n)
		b.stopped = make([]bool, n)
	}
	for c := 0; c < n; c++ {
		b.ranReal[c] = false
		b.stopped[c] = false
	}
	b.scr.ensure(numSegs)

	stoppedCount := 0
	iterIdx := 0
	var iter int64
	for stoppedCount < n {
		c := int(iter % int64(n))
		if b.stopped[c] {
			iter++
			continue
		}
		if iterIdx >= len(lt.iters) {
			return b.freezeAll(errors.New("sim: replay iteration stream exhausted (trace/config mismatch)"))
		}
		it := &lt.iters[iterIdx]
		iterIdx++
		if err := b.replayIteration(it, c); err != nil {
			return err
		}
		if it.status == 0 {
			b.ranReal[c] = true
			for _, ln := range b.live {
				ln.res.IterationsRun++
			}
		} else {
			b.stopped[c] = true
			stoppedCount++
		}
		iter++
		if iter > 1<<40 {
			return b.freezeAll(errors.New("sim: replay loop runaway"))
		}
	}

	for _, ln := range b.live {
		end := ln.start
		for c := 0; c < n; c++ {
			if ln.coreTime[c] > end {
				end = ln.coreTime[c]
			}
		}
		for c := 0; c < n; c++ {
			idle := end - ln.coreTime[c]
			if b.ranReal[c] {
				ln.res.Overheads.IterImbalance += idle
			} else {
				ln.res.Overheads.LowTripCount += end - ln.start
			}
		}
		if ln.ring != nil {
			end += ln.ring.FlushCost()
			ln.res.Ring.Stores += ln.ring.Stats.Stores
			ln.res.Ring.Loads += ln.ring.Stats.Loads
			ln.res.Ring.LoadHits += ln.ring.Stats.LoadHits
			ln.res.Ring.LoadMisses += ln.ring.Stats.LoadMisses
			ln.res.Ring.Evictions += ln.ring.Stats.Evictions
			ln.res.Ring.Signals += ln.ring.Stats.Signals
			ln.res.Ring.StallCycles += ln.ring.Stats.StallCycles
			ln.res.Ring.SignalStalls += ln.ring.Stats.SignalStalls
		} else if ln.memGroup >= 0 {
			// Flush once per group (the leader owns the hierarchy);
			// every conventional lane still pays the L2 drain.
			if ln.hier != nil {
				for c := 0; c < n; c++ {
					ln.hier.FlushDirty(c)
				}
			}
			end += int64(ln.arch.Mem.L2Latency)
		}
		ln.res.ParallelCycles += end + 5 - ln.now // +5: live-out collection
		ln.now = end + 5
		ln.seqCore.Reset(ln.now)
	}
	return nil
}

// replayIteration mirrors replayer.replayIteration: shared segment
// scratch and cursors, per-lane timing. Segment-entry transitions are
// stream-driven, so they are hoisted out of the per-lane loops.
func (b *batchReplayer) replayIteration(it *iterTrace, c int) error {
	tr := b.tr
	scr := &b.scr
	scr.epoch++
	ep := scr.epoch
	activeSegs := 0

	for _, ln := range b.live {
		ln.t = ln.coreTime[c]
	}

	for k := int32(0); k < it.runs; k++ {
		run := tr.runs[b.runCursor]
		b.runCursor++
		for off := run.off; off < run.off+run.n; off++ {
			if b.steps >= b.check {
				if err := b.sharedCheck(); err != nil {
					return err
				}
			}
			m := &tr.metas[off]
			added := m.added

			switch m.cls {
			case clsWait:
				s := int(m.seg)
				firstWait := scr.waitEp[s] != ep
				if firstWait {
					scr.waitEp[s] = ep
					activeSegs++
				}
				inSeg := activeSegs > 0
				for _, ln := range b.live {
					core := ln.parCores[c]
					iss, _ := core.IssueReg(ir.NoReg, ln.t, 0, 1)
					var ready int64
					if ln.decSync {
						ready = ln.ring.WaitReady(s, c, iss+1)
					} else {
						ready = iss + 1 + ln.c2c
						if ln.convSig[s] > 0 {
							ready = max(ready, ln.convSig[s]+2*ln.c2c)
						}
					}
					core.Barrier(ready)
					ln.res.Overheads.DependenceWaiting += ready - (iss + 1)
					ln.res.Overheads.WaitSignal++
					if firstWait {
						ln.res.SegEntries++
					}
					ln.finish(iss, inSeg, added, m.branches)
				}

			case clsSignal:
				s := int(m.seg)
				if scr.waitEp[s] == ep && activeSegs > 0 {
					activeSegs--
				}
				inSeg := activeSegs > 0
				for _, ln := range b.live {
					core := ln.parCores[c]
					iss, _ := core.IssueReg(ir.NoReg, ln.t, 0, 1)
					send := iss + 1
					if ln.decSync {
						ln.ring.Signal(s, c, send)
					} else {
						send += ln.l1
						if send > ln.convSig[s] {
							ln.convSig[s] = send
						}
					}
					ln.res.Overheads.WaitSignal++
					ln.finish(iss, inSeg, added, m.branches)
				}

			case clsShared:
				ai := b.addrCursor
				addr := tr.addrs[ai]
				b.addrCursor++
				slot := tr.slotAt(ai)
				inSeg := activeSegs > 0
				for _, ln := range b.live {
					core := ln.parCores[c]
					dec := ln.decMem
					if slot {
						dec = ln.decReg
					}
					var issue int64
					if ln.ring != nil && dec {
						iss, _ := core.IssueReg(m.dst, ln.t, metaReady(core, m), 1)
						if m.isStore {
							ln.ring.Store(c, addr, iss+1)
						} else {
							done := ln.ring.Load(c, addr, iss+1)
							core.SetRegReady(m.dst, done)
							ln.res.Overheads.Communication += max(0, done-(iss+2))
						}
						issue = iss
					} else {
						lat := b.latFor(ln, c, addr, m.isStore)
						iss, _ := core.IssueReg(m.dst, ln.t, metaReady(core, m), lat)
						ln.res.Overheads.Communication += max(0, lat-ln.l1)
						issue = iss
					}
					ln.finish(issue, inSeg, added, m.branches)
				}

			case clsPriv:
				addr := tr.addrs[b.addrCursor]
				b.addrCursor++
				inSeg := activeSegs > 0
				for _, ln := range b.live {
					core := ln.parCores[c]
					lat := b.latFor(ln, c, addr, m.isStore)
					iss, _ := core.IssueReg(m.dst, ln.t, metaReady(core, m), lat)
					ln.res.Overheads.Memory += max(0, lat-ln.l1)
					ln.finish(iss, inSeg, added, m.branches)
				}

			default:
				inSeg := activeSegs > 0
				for _, ln := range b.live {
					core := ln.parCores[c]
					iss, _ := core.IssueReg(m.dst, ln.t, metaReady(core, m), m.lat)
					ln.finish(iss, inSeg, added, m.branches)
				}
			}

			b.steps++
		}
	}
	for _, ln := range b.live {
		ln.coreTime[c] = ln.t + 1
	}
	return nil
}
