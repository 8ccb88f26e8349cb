package harness

// Batched retiming. The sweep figures (7, 8, 9, 10, 11) evaluate one
// recorded trace under many timing configs; replaying it once per cell
// walks the same instruction stream N times. prefetchRetimes instead
// groups a figure's cells by trace — (workload, level, cores, input) —
// and retimes every missing config of a group in one traversal with
// sim.ReplayBatch, publishing each lane's Result to the harness result
// store. The figure's cells then run unchanged: their simWithTrace
// calls hit the result tier and never touch the trace.
//
// The prefetch runs on the engine's worker pool, so it honours
// -parallel like the cells do: at -parallel 1 groups are served one at
// a time. Figures stay byte-identical at any parallelism: the prefetch
// only warms caches with Results that are bit-identical to what each
// cell would have computed solo (sim.ReplayBatch's contract, enforced
// by the equivalence tests), and the cells still assemble in index
// order.
//
// Prefetching is best-effort: any error is dropped and the affected
// cells recompute solo, attributing the failure properly. It is
// skipped entirely when replay is bypassed (SlowSim) or when per-cell
// deadlines are active — a batched traversal serves many cells, so it
// must not be accounted against any single cell's clock.

import (
	"context"
	"fmt"

	"helixrc/internal/hcc"
	"helixrc/internal/sim"
	"helixrc/internal/workloads"
)

// retimeGroup is one recorded trace plus the timing configs a figure
// will evaluate it under. For baseline groups (sequential runs, no
// parallel loops) the trace is level-independent and the lanes publish
// into the baseline store under CachedBaseline's normalized keys;
// otherwise the lanes publish into the result store. All archs of a
// non-baseline group must share one core count (the trace depends on
// it); baseline traces replay at any core count.
type retimeGroup struct {
	name     string
	level    hcc.Level
	ref      bool
	baseline bool
	// tier is the 1-based alias-tier override (0 = level default). It is
	// part of compiled-program identity, so it participates in the
	// compile and trace keys; the explore sweeps are its only setter.
	tier  int
	archs []sim.Config
}

// prefetchRetimes warms the result caches for the groups' cells,
// recording missing traces in parallel and retiming each trace's
// missing configs in one batched traversal. Best-effort; see the
// package comment above for the skip conditions.
func prefetchRetimes(ctx context.Context, groups []retimeGroup) {
	if SlowSim() || CellTimeout() > 0 {
		return
	}
	// parMap's error is dropped: cancellation reaches the cells anyway,
	// and a panicking group fails only its prefetch (the pool recovers
	// it), leaving its cells to recompute solo with proper attribution.
	parMap(ctx, len(groups), func(ctx context.Context, i int) (struct{}, error) {
		prefetchOne(ctx, &groups[i])
		return struct{}{}, nil
	})
}

// prefetchOne serves one group; a variable so tests can observe how
// prefetchRetimes schedules groups.
var prefetchOne = prefetchGroup

// groupKeys derives a group's trace key and per-config result keys
// from content fingerprints alone — no compilation, no execution — so
// the shard planner can enumerate and deduplicate work units cheaply.
// The key grammar here must stay in lockstep with CachedBaseline and
// runOn (covered by the equivalence tests): a drift would make the
// prefetch warm keys no cell ever reads.
func groupKeys(ctx context.Context, g *retimeGroup) (tkey string, keyOf func(sim.Config) string, err error) {
	fp, err := workloadFingerprint(ctx, g.name)
	if err != nil {
		return "", nil, err
	}
	if g.baseline {
		tkey = fmt.Sprintf("trace/base/%s/ref=%v/%s", g.name, g.ref, fp)
	} else {
		if len(g.archs) == 0 {
			return "", nil, fmt.Errorf("harness: group %s has no configs", g.name)
		}
		tkey = traceKey(g.name, g.level, g.archs[0].Cores, g.tier, g.ref, fp)
	}
	// Baseline lanes land in the baseline store under CachedBaseline's
	// core-normalized key; sweep lanes land in the result store under
	// the full config fingerprint.
	keyOf = func(arch sim.Config) string {
		if g.baseline {
			karch := arch
			karch.Cores = 0
			return fmt.Sprintf("base/%s/ref=%v/%s/%s", g.name, g.ref, karch.Fingerprint(), fp)
		}
		return resultKey(tkey, arch)
	}
	return tkey, keyOf, nil
}

// prefetchGroup serves one group: peek-filter the configs whose
// Results are already cached, record the trace if needed (the
// recording lane's Result is exact and published directly), then
// retime the remaining configs — batched when two or more are missing,
// a counted solo-replay fallback for a single straggler.
func prefetchGroup(ctx context.Context, g *retimeGroup) {
	if len(g.archs) == 0 {
		return
	}
	tkey, keyOf, err := groupKeys(ctx, g)
	if err != nil {
		return
	}
	var w *workloads.Workload
	var comp *hcc.Compiled
	if g.baseline {
		if w, err = workloads.Get(g.name); err != nil {
			return
		}
	} else {
		if w, comp, err = cachedCompileTier(ctx, g.name, g.level, g.archs[0].Cores, g.tier); err != nil {
			return
		}
	}
	cached := func(arch sim.Config) bool {
		if g.baseline {
			_, ok := seqStore.Peek(keyOf(arch))
			return ok
		}
		_, ok := resStore.Peek(keyOf(arch))
		return ok
	}
	put := func(arch sim.Config, res *sim.Result) {
		if g.baseline {
			seqStore.Put(keyOf(arch), res)
		} else {
			resStore.Put(keyOf(arch), res)
		}
	}

	var missing []sim.Config
	for _, arch := range g.archs {
		if cached(arch) {
			continue
		}
		missing = append(missing, arch)
	}
	if len(missing) == 0 {
		return
	}

	var recorded *sim.Result
	tr, err := traceStore.Get(ctx, tkey, func(cctx context.Context) (*sim.Trace, error) {
		res, tr, err := sim.Record(cctx, w.Prog, comp, w.Entry, missing[0], args(w, g.ref)...)
		if err != nil {
			return nil, err
		}
		recorded = res
		traceRecordings.Add(1)
		return tr, nil
	})
	if err != nil {
		return
	}
	if recorded != nil {
		put(missing[0], recorded)
		missing = missing[1:]
	}

	switch len(missing) {
	case 0:
	case 1:
		batchFallbacks.Add(1)
		if res, err := sim.Replay(ctx, tr, missing[0]); err == nil {
			traceReplays.Add(1)
			put(missing[0], res)
		}
	default:
		batchesIssued.Add(1)
		batchLanes.Add(int64(len(missing)))
		results, errs := sim.ReplayBatch(ctx, tr, missing)
		for i, arch := range missing {
			// Partial Results (budget, cancellation, per-lane validation)
			// are never cached: the cell recomputes solo and surfaces the
			// error itself.
			if errs[i] == nil && results[i] != nil {
				traceReplays.Add(1)
				put(arch, results[i])
			}
		}
	}
}
