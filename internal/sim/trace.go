package sim

// Trace-driven replay: the classic functional/timing split. The
// functional pass (Record, record.go) captures everything the timing
// model consumes from the interpreter — the dynamic instruction stream
// (as runs of indices into a flat pre-decoded metadata table), resolved
// memory addresses with their shared-slot classification, iteration
// boundaries and statuses, and live-in/last-value register snapshots
// for verification. A Trace is immutable once finished; Replay
// (replay.go) and ReplayBatch (replay_batch.go) time it under any
// same-core-count Config without touching internal/interp.
//
// What a trace may depend on from sim.Config: Cores, and nothing else.
// The scheduling function (iteration -> core = iter mod n) and the loop
// stop protocol make the dynamic stream a function of core count, but
// the compiler is keyed by cores anyway; every other Config field (core
// model, memory, ring, decoupling, PerfectMem) only changes *when*
// events happen, never *which* events happen. The functional pass reads
// nothing else, and the config-invariance test in replay_test.go pins
// this by recording the same run under different timing configs and
// requiring identical traces.

// blockRun is a maximal run of consecutively executed instructions in
// the flat metadata table: metas[off : off+n].
type blockRun struct {
	off uint32
	n   uint32
}

// traceEvent is one top-level step of the recorded program: `runs`
// sequential-code runs (on core 0) followed, when loop >= 0, by one
// invocation of loops[loop].
type traceEvent struct {
	runs int32
	loop int32
}

// iterTrace is one scheduled loop iteration: its body's return status
// and how many blockRuns it consumed.
type iterTrace struct {
	status int32
	runs   int32
}

// regVal is a (register, value) snapshot pair, sorted for determinism.
type regVal struct {
	reg int32
	val int64
}

// loopTrace is one parallel-loop invocation.
type loopTrace struct {
	numSegs  int32
	numSlots int32
	numRegs  int32 // body register-file size (core scoreboard width)
	counted  bool
	iters    []iterTrace
	// liveIns snapshots the slot-broadcast values (sorted by slot) and
	// lastVals the final last-value registers (sorted by register). Replay
	// does not consume them — they exist so equivalence tests can compare
	// the functional state a trace captured, not just its timing stream.
	liveIns  []regVal
	lastVals []regVal
}

// Trace is the recorded dynamic behaviour of one simulated run. It is
// immutable after Record returns and safe to share across goroutines;
// replays only read it.
type Trace struct {
	cores    int
	maxRegs  int
	retValue int64
	instrs   int64

	metas  []instrMeta  // flat per-block decoded metadata
	runs   []blockRun   // dynamic stream as runs over metas
	addrs  []int64      // effective addresses of memory ops, in order
	slots  []uint64     // bitset parallel to addrs: shared register slot
	events []traceEvent // top-level seq-span / loop interleaving
	loops  []loopTrace
}

// Cores returns the core count the trace was recorded with. Traces of
// baseline runs (no parallel loops) replay under any core count; traces
// with loops only under this one.
func (t *Trace) Cores() int { return t.cores }

// Instrs returns the recorded dynamic instruction count.
func (t *Trace) Instrs() int64 { return t.instrs }

// sizes for SizeBytes; close enough for cache budgeting.
const (
	metaBytes = 64 // instrMeta + slice header overhead
	runBytes  = 8
	iterBytes = 8
	loopBytes = 96
)

// SizeBytes estimates the trace's memory footprint, for byte-budget
// cache eviction.
func (t *Trace) SizeBytes() int64 {
	n := int64(len(t.metas))*metaBytes +
		int64(len(t.runs))*runBytes +
		int64(len(t.addrs))*8 +
		int64(len(t.slots))*8 +
		int64(len(t.events))*8
	for i := range t.loops {
		lp := &t.loops[i]
		n += loopBytes + int64(len(lp.iters))*iterBytes +
			int64(len(lp.liveIns)+len(lp.lastVals))*16
	}
	return n + 256
}

// slotAt reports whether memory access i (index into addrs) was a
// shared register slot.
func (t *Trace) slotAt(i int) bool {
	w := i >> 6
	if w >= len(t.slots) {
		return false
	}
	return t.slots[w]&(1<<uint(i&63)) != 0
}
