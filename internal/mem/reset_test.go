package mem

import (
	"math/rand"
	"testing"
)

// hierSummary folds every observable of a randomized access sequence
// into one comparable value.
type hierSummary struct {
	latSum   int64
	flushSum int64
	stats    AccessStats
}

// driveHier runs a deterministic randomized access mix (reads, writes,
// cross-core sharing, occasional flushes) against h.
func driveHier(h *Hierarchy, cores int, seed int64) hierSummary {
	rng := rand.New(rand.NewSource(seed))
	var s hierSummary
	for op := 0; op < 6000; op++ {
		core := rng.Intn(cores)
		// A mix of hot addresses (sharing, hits) and a long tail (misses,
		// evictions, DRAM row behaviour).
		var addr int64
		if rng.Intn(2) == 0 {
			addr = int64(rng.Intn(64))
		} else {
			addr = int64(rng.Intn(1 << 16))
		}
		s.latSum += int64(h.Access(core, addr, rng.Intn(3) == 0))
		if op%997 == 0 {
			s.flushSum += int64(h.FlushDirty(core))
		}
	}
	s.stats = h.Stats
	return s
}

// TestHierarchyResetIndistinguishable is the pooling contract: a
// Hierarchy dirtied by arbitrary traffic and Reset must be
// observationally identical to a freshly constructed one. The trace
// replayers pool hierarchies and depend on this for bit-identical
// results.
func TestHierarchyResetIndistinguishable(t *testing.T) {
	const cores = 4
	cfg := DefaultConfig()
	// Shrink the L2 so the test traffic actually exercises evictions and
	// write-backs, not just compulsory misses.
	cfg.L2.SizeBytes = 64 << 10
	for seed := int64(1); seed <= 5; seed++ {
		fresh := NewHierarchy(cores, cfg)
		pooled := NewHierarchy(cores, cfg)
		driveHier(pooled, cores, seed*1231) // arbitrary dirtying traffic
		pooled.Reset()

		want := driveHier(fresh, cores, seed)
		got := driveHier(pooled, cores, seed)
		if got != want {
			t.Fatalf("seed %d: pooled-and-reset hierarchy diverges from fresh:\nfresh:  %+v\npooled: %+v", seed, want, got)
		}
	}
}

// TestHierarchyResetCoresIndistinguishable extends the pooling contract
// across core counts: a hierarchy dirtied on one machine size and
// ResetCores'd to another — growing, shrinking, then growing back over
// parked L1s — must behave exactly like a fresh one of the new size.
func TestHierarchyResetCoresIndistinguishable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2.SizeBytes = 64 << 10
	pooled := NewHierarchy(4, cfg)
	prev := 4
	for i, cores := range []int{16, 2, 8, 16, 1} {
		driveHier(pooled, prev, int64(i)*977) // arbitrary dirtying traffic
		pooled.ResetCores(cores)
		if len(pooled.L1) != cores {
			t.Fatalf("ResetCores(%d) left %d L1s", cores, len(pooled.L1))
		}
		want := driveHier(NewHierarchy(cores, cfg), cores, int64(i))
		if got := driveHier(pooled, cores, int64(i)); got != want {
			t.Fatalf("%d → %d cores: reset hierarchy diverges from fresh:\nfresh:  %+v\npooled: %+v", prev, cores, want, got)
		}
		prev = cores
	}
}
