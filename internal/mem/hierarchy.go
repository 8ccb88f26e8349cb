package mem

// Config sizes the whole hierarchy. The defaults reproduce the paper's
// evaluation platform: 32KB 8-way L1 per core, a shared 8MB 16-way L2 that
// does not scale with core count, and an optimistic 10-cycle cache-to-cache
// transfer latency for the coherence protocol.
type Config struct {
	L1           CacheConfig
	L2           CacheConfig
	L1Latency    int
	L2Latency    int
	CacheToCache int
	DRAM         DRAMConfig
}

// DefaultConfig returns the paper's platform parameters.
func DefaultConfig() Config {
	return Config{
		L1:           CacheConfig{SizeBytes: 32 << 10, Assoc: 8, LineBytes: 64},
		L2:           CacheConfig{SizeBytes: 8 << 20, Assoc: 16, LineBytes: 64},
		L1Latency:    3,
		L2Latency:    20,
		CacheToCache: 10,
		DRAM:         DefaultDRAM(),
	}
}

// AccessStats breaks down where requests were satisfied.
type AccessStats struct {
	L1Hits     int64
	L2Hits     int64
	DRAMFills  int64
	C2CXfers   int64
	WriteBacks int64
}

// Hierarchy is the multi-core memory system: private L1s, shared L2, DRAM,
// and a last-writer directory approximating an invalidation-based
// coherence protocol (the paper's pull-based baseline: a consumer's demand
// miss to a remotely dirty line costs the cache-to-cache latency).
type Hierarchy struct {
	Cfg   Config
	L1    []*Cache
	L2    *Cache
	DRAM  *DRAM
	Stats AccessStats
	// owner[line] is the core whose L1 last wrote the line, or -1.
	owner map[int64]int
}

// NewHierarchy builds the hierarchy for n cores.
func NewHierarchy(n int, cfg Config) *Hierarchy {
	h := &Hierarchy{Cfg: cfg, L2: NewCache(cfg.L2), DRAM: NewDRAM(cfg.DRAM), owner: map[int64]int{}}
	for i := 0; i < n; i++ {
		h.L1 = append(h.L1, NewCache(cfg.L1))
	}
	return h
}

// Access returns the latency of a load or store by core to wordAddr,
// updating cache and directory state.
func (h *Hierarchy) Access(core int, wordAddr int64, write bool) int {
	l1 := h.L1[core]
	line := l1.LineOf(wordAddr)
	own, owned := h.owner[line]

	// A hit is only usable if no other core has dirtied the line since.
	if l1.Lookup(wordAddr) {
		if !owned || own == core {
			if write {
				l1.Insert(wordAddr, true)
				h.owner[line] = core
			}
			h.Stats.L1Hits++
			return h.Cfg.L1Latency
		}
		// Stale: invalidate and fall through to a coherence transfer.
		l1.Invalidate(wordAddr)
	}

	lat := h.Cfg.L1Latency
	switch {
	case owned && own != core:
		// Dirty in a remote L1: cache-to-cache transfer.
		lat += h.Cfg.CacheToCache
		h.Stats.C2CXfers++
		h.L1[own].Invalidate(wordAddr)
	case h.L2.Lookup(wordAddr):
		lat += h.Cfg.L2Latency
		h.Stats.L2Hits++
	default:
		lat += h.Cfg.L2Latency + h.DRAM.Access(h.L2.LineOf(wordAddr))
		h.Stats.DRAMFills++
		if ev, dirty := h.L2.Insert(wordAddr, false); ev >= 0 && dirty {
			h.Stats.WriteBacks++
		}
	}
	if ev, dirty := l1.Insert(wordAddr, write); ev >= 0 && dirty {
		h.Stats.WriteBacks++
		h.L2.Insert(l1.WordOf(ev), true)
	}
	if write {
		h.owner[line] = core
	} else if owned && own != core {
		// The transfer downgraded the remote copy; line is now shared.
		delete(h.owner, line)
	}
	return lat
}

// Reset restores the hierarchy to its freshly built state: empty caches,
// closed DRAM rows, empty directory, zeroed statistics. It lets a
// hierarchy be pooled and reused across simulator runs instead of being
// reallocated (the L2 alone is tens of thousands of lines).
func (h *Hierarchy) Reset() {
	for _, c := range h.L1 {
		c.ResetAll()
	}
	h.L2.ResetAll()
	h.DRAM.Reset()
	clear(h.owner)
	h.Stats = AccessStats{}
}

// ResetCores is Reset for an n-core machine: it keeps the L2, the DRAM
// and up to n L1s (building any missing ones), so one pooled hierarchy
// serves every core count of a sweep.
func (h *Hierarchy) ResetCores(n int) {
	for i := len(h.L1); i < n; i++ {
		if i < cap(h.L1) {
			h.L1 = h.L1[:i+1] // may hold an L1 parked by a larger machine
		} else {
			h.L1 = append(h.L1, nil)
		}
		if h.L1[i] == nil {
			h.L1[i] = NewCache(h.Cfg.L1)
		}
	}
	h.L1 = h.L1[:n]
	h.Reset()
}

// FlushDirty returns the number of dirty L1 lines for a core and clears
// them (used to model end-of-loop write-back fences).
func (h *Hierarchy) FlushDirty(core int) int {
	n := h.L1[core].DirtyCount()
	h.L1[core].Reset()
	return n
}
