package interp

import (
	"math/bits"
	"slices"
	"sort"

	"helixrc/internal/cfg"
	"helixrc/internal/ir"
)

// DepPair identifies a loop-carried memory dependence between two static
// instructions (by UID). The pair is stored with From <= To so that the
// unordered pair has one canonical form.
type DepPair struct {
	From, To int32
}

func canonPair(a, b int32) DepPair {
	if a > b {
		a, b = b, a
	}
	return DepPair{From: a, To: b}
}

// LoopProfile aggregates the dynamic behaviour of one loop over a run.
type LoopProfile struct {
	Fn   *ir.Function
	Loop *cfg.Loop

	Invocations int64
	Iterations  int64
	// InstrTotal counts every instruction executed while the loop was
	// active, including callees and inner loops (this is the loop's
	// dynamic coverage numerator).
	InstrTotal int64
	// IterLens samples per-iteration instruction counts (capped).
	IterLens []int32
	// TripCounts samples iterations per invocation (capped).
	TripCounts []int32
	// Deps maps each observed actual loop-carried memory dependence to the
	// number of times it occurred.
	Deps map[DepPair]int64
	// SharedAddrs is the set of addresses with cross-iteration traffic.
	SharedAddrs map[int64]struct{}
	// HopDist[d] counts shared-value first-consumptions whose undirected
	// producer→consumer core distance is d on the profiling ring.
	HopDist []int64
	// ConsumerCounts[k] counts shared stores consumed by k distinct cores
	// (index 0 means consumed by no other core before being overwritten).
	ConsumerCounts map[int]int64

	// Per-address tracking state and a dense ConsumerCounts histogram,
	// folded into the exported fields when the run ends.
	addrs        addrTable
	consumerHist []int64
	// iteration-in-progress state
	curIterInstrs int64
	curInvocIters int64
	frameDepth    int
}

const maxSamples = 1 << 16

// instrAccess is the last iteration in which one static instruction
// touched an address: one node of the address's list in addrTable.accs.
type instrAccess struct {
	uid      int32
	next     int32 // 1 + index of the address's next node; 0 ends the list
	isWrite  bool
	lastIter int64
}

type addrRecord struct {
	addr int64
	// Current live write, for hop/consumer statistics: its iteration and
	// the distinct cores below 64 that read it (cores beyond are in
	// addrTable.wide).
	writeIter int64
	consumers uint64
	// accs heads the list of the static instructions that touched this
	// address (1 + index into addrTable.accs; 0 = none), for the
	// dependence oracle.
	accs          int32
	haveWrite     bool
	firstConsumed bool
	// shared marks cross-iteration traffic (the address joins SharedAddrs).
	shared bool
}

// addrTable finds an address's record. Addresses inside the profiled
// memory's span — from the lowest global (lo) to the arena end, which
// grows as the program allocates — index slot by word offset; an access
// outside it (a word the program never allocated) goes through far, and
// keeps its record if the arena later grows over it.
type addrTable struct {
	lo   int64
	slot []int32 // addr-lo → 1 + index into recs; 0 = not seen yet
	far  map[int64]int32
	recs []addrRecord
	accs []instrAccess
	// wide holds, per record, the consumer cores numbered 64 and up
	// (rings of more than 64 cores only).
	wide map[int32][]int32
}

// get returns the index of addr's record, creating it on first touch;
// arena is the memory's current arena end.
func (t *addrTable) get(addr, arena int64) int32 {
	off := addr - t.lo
	if off < 0 || addr >= arena {
		i, ok := t.far[addr]
		if !ok {
			if t.far == nil {
				t.far = map[int64]int32{}
			}
			i = t.add(addr)
			t.far[addr] = i
		}
		return i
	}
	if off >= int64(len(t.slot)) {
		n := min(max(2*int64(len(t.slot)), off+1), arena-t.lo)
		t.slot = append(t.slot, make([]int32, n-int64(len(t.slot)))...)
	}
	if t.slot[off] == 0 {
		i, ok := t.far[addr] // touched before the arena reached it
		if !ok {
			i = t.add(addr)
		}
		t.slot[off] = i + 1
	}
	return t.slot[off] - 1
}

func (t *addrTable) add(addr int64) int32 {
	t.recs = append(t.recs, addrRecord{addr: addr})
	return int32(len(t.recs) - 1)
}

// addConsumer adds core to the readers of record i's live write.
func (t *addrTable) addConsumer(i int32, core int) {
	if core < 64 {
		t.recs[i].consumers |= 1 << core
		return
	}
	if t.wide == nil {
		t.wide = map[int32][]int32{}
	}
	if !slices.Contains(t.wide[i], int32(core)) {
		t.wide[i] = append(t.wide[i], int32(core))
	}
}

// consumerCount returns how many distinct cores read record i's live
// write.
func (t *addrTable) consumerCount(i int32) int {
	n := bits.OnesCount64(t.recs[i].consumers)
	if t.wide != nil {
		n += len(t.wide[i])
	}
	return n
}

// newWrite starts record i's next live write, in iteration iter.
func (t *addrTable) newWrite(i int32, iter int64) {
	st := &t.recs[i]
	st.haveWrite, st.writeIter, st.firstConsumed, st.consumers = true, iter, false, 0
	if t.wide != nil {
		delete(t.wide, i)
	}
}

// Coverage returns this loop's fraction of the program's dynamic
// instructions.
func (lp *LoopProfile) Coverage(programInstrs int64) float64 {
	if programInstrs == 0 {
		return 0
	}
	return float64(lp.InstrTotal) / float64(programInstrs)
}

// AvgIterLen returns the mean instructions per iteration.
func (lp *LoopProfile) AvgIterLen() float64 {
	if lp.Iterations == 0 {
		return 0
	}
	// InstrTotal includes partial tails; the sample mean is accurate
	// enough and avoids double counting across nested loops.
	var sum int64
	for _, v := range lp.IterLens {
		sum += int64(v)
	}
	if len(lp.IterLens) == 0 {
		return 0
	}
	return float64(sum) / float64(len(lp.IterLens))
}

// AvgTripCount returns the mean iterations per invocation.
func (lp *LoopProfile) AvgTripCount() float64 {
	if len(lp.TripCounts) == 0 {
		return 0
	}
	var sum int64
	for _, v := range lp.TripCounts {
		sum += int64(v)
	}
	return float64(sum) / float64(len(lp.TripCounts))
}

// Profile is the result of a profiling run.
type Profile struct {
	// Loops maps loop headers to their profiles, across all functions.
	Loops map[*cfg.Loop]*LoopProfile
	// Conflicts records loops observed active at the same time (one nested
	// dynamically inside the other, possibly across calls). Selecting two
	// conflicting loops would double-count coverage and require nested
	// parallelism, so the selector picks at most one of each pair.
	Conflicts map[*cfg.Loop]map[*cfg.Loop]bool
	// BlockCount records how many times each basic block was entered —
	// the loop selector weighs sequential-segment spans by execution
	// frequency (an inner loop inside a segment multiplies its cost).
	BlockCount map[*ir.Block]int64
	// TotalInstrs is the dynamic instruction count of the whole run.
	TotalInstrs int64
	RetValue    int64
}

// Conflict reports whether two loops were ever active simultaneously.
func (p *Profile) Conflict(a, b *cfg.Loop) bool {
	return p.Conflicts[a][b]
}

// LoopsBy returns profiles sorted by descending coverage.
func (p *Profile) LoopsBy() []*LoopProfile {
	out := make([]*LoopProfile, 0, len(p.Loops))
	for _, lp := range p.Loops {
		out = append(out, lp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].InstrTotal != out[j].InstrTotal {
			return out[i].InstrTotal > out[j].InstrTotal
		}
		return out[i].Loop.ID < out[j].Loop.ID
	})
	return out
}

// Profiler drives an instrumented sequential execution.
type Profiler struct {
	Prog *ir.Program
	// Forests supplies loop structure per function; functions absent from
	// the map are executed without loop instrumentation.
	Forests map[*ir.Function]*cfg.Forest
	// RingSize is the core count used for hop-distance statistics
	// (16 in the paper's Figure 4).
	RingSize int
	// Budget bounds the instruction count (0 = default).
	Budget int64
}

type activeLoop struct {
	lp         *LoopProfile
	iter       int64
	frameDepth int
}

// Run executes fn(args...) and returns the collected profile.
func (pr *Profiler) Run(fn *ir.Function, args ...int64) (*Profile, error) {
	if pr.RingSize <= 0 {
		pr.RingSize = 16
	}
	budget := pr.Budget
	if budget <= 0 {
		budget = 1 << 32
	}
	mem := NewMemory(pr.Prog)
	c := NewContext(pr.Prog, mem, fn, args...)
	prof := &Profile{
		Loops:      map[*cfg.Loop]*LoopProfile{},
		Conflicts:  map[*cfg.Loop]map[*cfg.Loop]bool{},
		BlockCount: map[*ir.Block]int64{},
	}
	// Per-function state, looked up once per change of function: the
	// loop forest and dense block-entry counts by Block.Index (which the
	// builder, the parser and cfg.New keep equal to the block's
	// position), folded into BlockCount when the run ends.
	type fnState struct {
		forest *cfg.Forest
		counts []int64
	}
	fnStates := map[*ir.Function]*fnState{}
	var lastFn *ir.Function
	var cur *fnState
	stateOf := func(f *ir.Function) *fnState {
		if f != lastFn {
			cur = fnStates[f]
			if cur == nil {
				cur = &fnState{forest: pr.Forests[f], counts: make([]int64, len(f.Blocks))}
				fnStates[f] = cur
			}
			lastFn = f
		}
		return cur
	}
	if f, blk, _ := c.Frame(); blk != nil {
		stateOf(f).counts[blk.Index]++
	}
	addConflict := func(a, b *cfg.Loop) {
		if prof.Conflicts[a] == nil {
			prof.Conflicts[a] = map[*cfg.Loop]bool{}
		}
		if prof.Conflicts[b] == nil {
			prof.Conflicts[b] = map[*cfg.Loop]bool{}
		}
		prof.Conflicts[a][b] = true
		prof.Conflicts[b][a] = true
	}

	var stack []activeLoop
	depth := 1 // frame depth of the outermost function

	getLP := func(f *ir.Function, l *cfg.Loop) *LoopProfile {
		lp := prof.Loops[l]
		if lp == nil {
			lp = &LoopProfile{
				Fn: f, Loop: l,
				Deps:           map[DepPair]int64{},
				SharedAddrs:    map[int64]struct{}{},
				HopDist:        make([]int64, pr.RingSize/2+1),
				ConsumerCounts: map[int]int64{},
				addrs:          addrTable{lo: mem.base},
				consumerHist:   make([]int64, pr.RingSize+1),
			}
			prof.Loops[l] = lp
		}
		return lp
	}

	// endIteration closes the loop's current iteration sample.
	endIteration := func(al *activeLoop) {
		if len(al.lp.IterLens) < maxSamples {
			al.lp.IterLens = append(al.lp.IterLens, int32(al.lp.curIterInstrs))
		}
		al.lp.curIterInstrs = 0
	}
	popLoop := func() {
		al := &stack[len(stack)-1]
		endIteration(al)
		if len(al.lp.TripCounts) < maxSamples {
			al.lp.TripCounts = append(al.lp.TripCounts, int32(al.iter+1))
		}
		stack = stack[:len(stack)-1]
	}

	// finish folds the dense run state into the exported profile fields.
	// liveWrites also counts the consumers of each address's last write,
	// which only a completed run does.
	finish := func(liveWrites bool) {
		for f, st := range fnStates {
			for i, n := range st.counts {
				if n > 0 {
					prof.BlockCount[f.Blocks[i]] = n
				}
			}
		}
		for _, lp := range prof.Loops {
			lp.fold(liveWrites)
		}
	}

	for !c.Done() {
		if c.Steps >= budget {
			finish(false)
			return prof, ErrBudget
		}
		curFn, curBlk, _ := c.Frame()
		in := c.Next()

		info := c.Step()
		prof.TotalInstrs++
		if info.Branched {
			if f, nb, _ := c.Frame(); nb != nil {
				stateOf(f).counts[nb.Index]++
			}
		}
		for i := range stack {
			stack[i].lp.InstrTotal++
			stack[i].lp.curIterInstrs++
		}

		// Memory dependence oracle for all active loops.
		if in.Op.IsMem() {
			isWrite := in.Op == ir.OpStore
			for i := range stack {
				pr.recordAccess(stack[i].lp, stack[i].iter, in.UID, info.Addr, isWrite, mem.arena)
			}
		}

		// Loop transitions happen only on intra-frame branches.
		switch {
		case info.Returned:
			// done below via c.Done
		case in.Op == ir.OpCall && in.Callee != nil:
			depth++
		case in.Op == ir.OpRet:
			depth--
			// Pop loops belonging to frames that no longer exist.
			for len(stack) > 0 && stack[len(stack)-1].frameDepth > depth {
				popLoop()
			}
		case info.Branched:
			_, nb, _ := c.Frame()
			// Pop loops in this frame whose body we just left.
			for len(stack) > 0 && stack[len(stack)-1].frameDepth == depth &&
				!stack[len(stack)-1].lp.Loop.Contains(nb) {
				popLoop()
			}
			if forest := stateOf(curFn).forest; forest != nil {
				if l := headerOf(forest, nb); l != nil {
					top := -1
					if len(stack) > 0 {
						top = len(stack) - 1
					}
					if top >= 0 && stack[top].lp.Loop == l && stack[top].frameDepth == depth {
						// Back edge: next iteration.
						if isLatch(l, curBlk) {
							endIteration(&stack[top])
							stack[top].iter++
							stack[top].lp.Iterations++
						}
					} else {
						lp := getLP(curFn, l)
						lp.Invocations++
						lp.Iterations++
						for i := range stack {
							addConflict(stack[i].lp.Loop, l)
						}
						stack = append(stack, activeLoop{lp: lp, frameDepth: depth})
					}
				}
			}
		}
		if info.Returned {
			prof.RetValue = info.RetValue
		}
	}
	for len(stack) > 0 {
		popLoop()
	}
	finish(true)
	return prof, nil
}

// fold moves the per-address run state into SharedAddrs and
// ConsumerCounts and drops it; liveWrites also counts each address's
// still-live write.
func (lp *LoopProfile) fold(liveWrites bool) {
	for i := range lp.addrs.recs {
		st := &lp.addrs.recs[i]
		if st.shared {
			lp.SharedAddrs[st.addr] = struct{}{}
		}
		if liveWrites && st.haveWrite {
			lp.consumerHist[lp.addrs.consumerCount(int32(i))]++
		}
	}
	for k, n := range lp.consumerHist {
		if n > 0 {
			lp.ConsumerCounts[k] = n
		}
	}
	lp.addrs, lp.consumerHist = addrTable{}, nil
}

func headerOf(f *cfg.Forest, b *ir.Block) *cfg.Loop {
	l := f.InnermostLoop(b)
	if l != nil && l.Header == b {
		return l
	}
	// b may be the header of an outer loop that also contains it.
	for ; l != nil; l = l.Parent {
		if l.Header == b {
			return l
		}
	}
	return nil
}

func isLatch(l *cfg.Loop, b *ir.Block) bool {
	for _, la := range l.Latches {
		if la == b {
			return true
		}
	}
	return false
}

func (pr *Profiler) recordAccess(lp *LoopProfile, iter int64, uid int32, addr int64, isWrite bool, arena int64) {
	t := &lp.addrs
	ri := t.get(addr, arena)
	st := &t.recs[ri]
	// Dependence oracle: any earlier-iteration access by another static
	// instruction (or the same one, e.g. a recurrent store) where at
	// least one side writes.
	var self *instrAccess
	for k := st.accs; k != 0; k = t.accs[k-1].next {
		rec := &t.accs[k-1]
		if rec.lastIter < iter && (rec.isWrite || isWrite) {
			lp.Deps[canonPair(rec.uid, uid)]++
			st.shared = true
		}
		if rec.uid == uid {
			self = rec
		}
	}
	if self == nil {
		t.accs = append(t.accs, instrAccess{uid: uid, next: st.accs})
		st.accs = int32(len(t.accs))
		self = &t.accs[len(t.accs)-1]
	}
	self.isWrite, self.lastIter = isWrite, iter

	// Hop-distance / consumer statistics.
	n := int64(pr.RingSize)
	if isWrite {
		if st.haveWrite {
			lp.consumerHist[t.consumerCount(ri)]++
		}
		t.newWrite(ri, iter)
	} else if st.haveWrite && iter > st.writeIter {
		t.addConsumer(ri, int(iter%n))
		if !st.firstConsumed {
			st.firstConsumed = true
			d := (iter - st.writeIter) % n
			if d > n/2 {
				d = n - d
			}
			if d == 0 {
				d = n / 2 // a full lap maps to the farthest hop bucket
			}
			lp.HopDist[d]++
		}
	}
}
