package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"helixrc/internal/artifact"
	"helixrc/internal/cfg"
	"helixrc/internal/harness"
	"helixrc/internal/hcc"
	"helixrc/internal/interp"
	"helixrc/internal/ir"
	"helixrc/internal/sim"
	"helixrc/internal/workloads"
)

// perLayerMetric names one metric of the traced run.
type perLayerMetric struct{ name, unit string }

// perLayerMetrics lists every per-layer metric in BENCHMARK.json order;
// TestPerLayerMetricsMatchBenchmark keeps the two lists the same. A
// metric a workload does not exercise reads 0 on it (for example the
// server metrics outside serve-mixed).
func perLayerMetrics() []perLayerMetric {
	var out []perLayerMetric
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, perLayerMetric{n, unit})
		}
	}
	add("count", "harness.recordings", "harness.replays", "harness.batches", "harness.batch_lanes")
	add("ratio", "harness.replays_per_recording")
	add("ms", "harness.sweep_prefetch_ms", "harness.sweep_cells_ms")

	add("count", "artifact.mem_hits", "artifact.mem_misses")
	add("ratio", "artifact.mem_hit_ratio")
	add("count", "artifact.evictions")
	add("MB", "artifact.evicted_mb")
	add("ms", "artifact.store_put_ms", "artifact.store_load_ms")

	add("ms", "hcc.compile_ms")
	add("count", "hcc.loops_selected")
	add("ms", "hcc.profile_ms")
	add("Minstr/s", "hcc.profile_minstr_per_s")
	add("ratio", "hcc.profile_share")
	add("Minstr/s", "interp.minstr_per_s")

	add("ms", "sim.record_ms")
	add("Minstr/s", "sim.record_minstr_per_s")
	add("ms", "sim.replay_ms")
	add("Minstr/s", "sim.replay_minstr_per_s")
	add("allocs/op", "sim.replay_allocs")
	add("ms", "sim.batch_ms")
	add("Minstr/s", "sim.batch_minstr_per_s")
	add("allocs/op", "sim.batch_allocs")
	add("Minstr/s", "sim.run_fast_minstr_per_s", "sim.run_ref_minstr_per_s")
	add("MB", "sim.trace_mb")
	add("MB/s", "sim.encode_mb_per_s", "sim.decode_mb_per_s")
	add("KiB", "sim.result_retained_kb")

	add("ms", "server.queue_ms_p50", "server.queue_ms_p95")
	for _, kind := range []string{"compile", "simulate", "figure"} {
		add("ms", "server.run_ms_p50."+kind, "server.run_ms_p95."+kind)
	}
	add("ms", "server.submit_ms_p95")
	add("count", "server.polls_per_job", "server.sheds", "server.queue_depth_max", "server.job_samples")
	add("ratio", "server.share_recorded", "server.share_replayed", "server.share_cache_hit")

	for _, p := range workloads.Names() {
		add("x", "model.speedup."+p)
		add("%", "model.speedup_err_pct."+p)
	}
	add("x", "model.cint_geomean")
	add("%", "model.cint_geomean_err_pct")
	add("x", "model.cfp_geomean")
	add("%", "model.cfp_geomean_err_pct")

	for _, layer := range []string{"perfbench", "harness", "artifact", "hcc", "interp", "sim", "server"} {
		add("ms", "trace.self_ms."+layer)
	}
	add("count", "trace.spans")
	add("s", "trace.overhead_s")
	return out
}

// layerTarget is one (program, level, cores, input) the direct layer
// calls run on.
type layerTarget struct {
	prog  string
	level hcc.Level
	cores int
	ref   bool
	tier  int
}

// layerTargets are each workload's own programs, levels and core
// counts.
func layerTargets(workload string) ([]layerTarget, error) {
	var out []layerTarget
	if workload == serveMixed {
		for _, id := range serveIdentities() {
			out = append(out, layerTarget{id.prog, hcc.Level(id.level), id.cores, id.ref, 0})
		}
		return out, nil
	}
	fams, err := loadSweepFamilies()
	if err != nil {
		return nil, err
	}
	for _, f := range fams {
		for _, s := range f.scenarios {
			out = append(out, layerTarget{s, sweepLevel, 8, true, 3})
		}
	}
	return out, nil
}

// replayConfigs are the timings the solo and batched replays retime
// each trace under.
func replayConfigs(cores int) []sim.Config {
	var out []sim.Config
	for _, link := range []int{1, 2, 4, 8} {
		for _, sig := range []int{0, 2} {
			c := sim.HelixRC(cores)
			c.Ring.LinkLatency = link
			c.Ring.SignalBandwidth = sig
			out = append(out, c)
		}
	}
	return out
}

// layerTotals accumulates the direct-call measurements.
type layerTotals struct {
	compile, profile, interp, record, replay, batch, fast, slow, encode, decode, put, load time.Duration
	loops                                                                                  int
	profInstrs, interpInstrs, recInstrs, replayInstrs, batchInstrs                         int64
	fastInstrs, slowInstrs, replays, replayAllocs, batches, batchAllocs, traceB            int64
}

// measureLayers times the public calls into hcc, interp, sim and
// artifact directly, one target at a time, then the model's Figure 7
// speedups. Each target's calls share one trace.
func (c *childRun) measureLayers(ctx context.Context, workload, dir string) error {
	targets, err := layerTargets(workload)
	if err != nil {
		return err
	}
	var t layerTotals
	store := artifact.NewStore[*sim.Trace]("trace", "perfbench", (*sim.Trace).SizeBytes,
		&artifact.Codec[*sim.Trace]{Encode: sim.EncodeTrace, Decode: sim.DecodeTrace})
	store.SetDir(filepath.Join(dir, "layer-store"))
	for i, tg := range targets {
		if err := c.measureTarget(ctx, tg, fmt.Sprintf("t%d", i), store, &t); err != nil {
			return fmt.Errorf("%s: %w", tg.prog, err)
		}
	}
	if err := store.Clear(); err != nil {
		return err
	}
	kb, err := resultRetainedKB(ctx, targets[0])
	if err != nil {
		return err
	}

	l := c.rep.Layer
	rate := func(instrs int64, d time.Duration) float64 { return ratio(float64(instrs)/1e6, d.Seconds()) }
	l["hcc.compile_ms"] = ms(t.compile)
	l["hcc.loops_selected"] = float64(t.loops)
	l["hcc.profile_ms"] = ms(t.profile)
	l["hcc.profile_minstr_per_s"] = rate(t.profInstrs, t.profile)
	l["hcc.profile_share"] = ratio(ms(t.profile), ms(t.compile))
	l["interp.minstr_per_s"] = rate(t.interpInstrs, t.interp)
	l["sim.record_ms"] = ms(t.record)
	l["sim.record_minstr_per_s"] = rate(t.recInstrs, t.record)
	l["sim.replay_ms"] = ms(t.replay)
	l["sim.replay_minstr_per_s"] = rate(t.replayInstrs, t.replay)
	l["sim.replay_allocs"] = ratio(float64(t.replayAllocs), float64(t.replays))
	l["sim.batch_ms"] = ms(t.batch)
	l["sim.batch_minstr_per_s"] = rate(t.batchInstrs, t.batch)
	l["sim.batch_allocs"] = ratio(float64(t.batchAllocs), float64(t.batches))
	l["sim.run_fast_minstr_per_s"] = rate(t.fastInstrs, t.fast)
	l["sim.run_ref_minstr_per_s"] = rate(t.slowInstrs, t.slow)
	l["sim.trace_mb"] = float64(t.traceB) / (1 << 20)
	l["sim.encode_mb_per_s"] = ratio(float64(t.traceB)/(1<<20), t.encode.Seconds())
	l["sim.decode_mb_per_s"] = ratio(float64(t.traceB)/(1<<20), t.decode.Seconds())
	l["sim.result_retained_kb"] = kb
	l["artifact.store_put_ms"] = ms(t.put)
	l["artifact.store_load_ms"] = ms(t.load)
	return c.modelMetrics(ctx)
}

// measure runs f and records it as a span of layer under parent,
// returning its duration and the heap allocations it made. The span is
// added after the call so the tracer's own allocations stay out of the
// count.
func (c *childRun) measure(parent spanRef, layer, name string, f func() error) (time.Duration, int64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	c.tr.add(parent, layer, name, t0, t1)
	return t1.Sub(t0), int64(m1.Mallocs - m0.Mallocs), err
}

func (c *childRun) measureTarget(ctx context.Context, tg layerTarget, key string, store *artifact.Store[*sim.Trace], t *layerTotals) error {
	root := c.tr.begin(spanRef{}, "perfbench", "layers "+tg.prog)
	defer c.tr.end(root)

	// Every call gets a fresh copy of the program: HCC mutates it.
	w, err := workloads.Get(tg.prog)
	if err != nil {
		return err
	}
	var comp *hcc.Compiled
	d, _, err := c.measure(root, "hcc", "hcc.Compile", func() (err error) {
		comp, err = hcc.Compile(w.Prog, w.Entry, hcc.Options{Level: tg.level, Cores: tg.cores, TrainArgs: w.TrainArgs, AliasTier: tg.tier})
		return err
	})
	if err != nil {
		return err
	}
	t.compile += d
	t.loops += len(comp.Loops)

	// The profiler alone, on the loop forests Compile builds, with the
	// same (default) budget.
	pw, err := workloads.Get(tg.prog)
	if err != nil {
		return err
	}
	pw.Prog.AssignUIDs()
	forests := map[*ir.Function]*cfg.Forest{}
	for _, f := range pw.Prog.Funcs {
		forests[f] = cfg.FindLoops(cfg.New(f))
	}
	var prof *interp.Profile
	d, _, err = c.measure(root, "interp", "interp.Profiler.Run", func() (err error) {
		prof, err = (&interp.Profiler{Prog: pw.Prog, Forests: forests, RingSize: tg.cores}).Run(pw.Entry, pw.TrainArgs...)
		return err
	})
	if err != nil {
		return err
	}
	t.profile += d
	t.profInstrs += prof.TotalInstrs

	iw, err := workloads.Get(tg.prog)
	if err != nil {
		return err
	}
	var ires interp.Result
	d, _, err = c.measure(root, "interp", "interp.Run", func() (err error) {
		ires, err = interp.Run(iw.Prog, iw.Entry, 0, iw.TrainArgs...)
		return err
	})
	if err != nil {
		return err
	}
	t.interp += d
	t.interpInstrs += ires.Steps

	args := w.TrainArgs
	if tg.ref {
		args = w.RefArgs
	}
	arch := sim.HelixRC(tg.cores)
	var tr *sim.Trace
	d, _, err = c.measure(root, "sim", "sim.Record", func() (err error) {
		_, tr, err = sim.Record(ctx, w.Prog, comp, w.Entry, arch, args...)
		return err
	})
	if err != nil {
		return err
	}
	t.record += d
	t.recInstrs += tr.Instrs()

	cfgs := replayConfigs(tg.cores)
	for _, a := range cfgs {
		d, allocs, err := c.measure(root, "sim", "sim.Replay", func() error {
			_, err := sim.Replay(ctx, tr, a)
			return err
		})
		if err != nil {
			return err
		}
		t.replay += d
		t.replays++
		t.replayAllocs += allocs
		t.replayInstrs += tr.Instrs()
	}
	d, allocs, err := c.measure(root, "sim", "sim.ReplayBatch", func() error {
		_, errs := sim.ReplayBatch(ctx, tr, cfgs)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.batch += d
	t.batches++
	t.batchAllocs += allocs
	t.batchInstrs += tr.Instrs() * int64(len(cfgs))

	for _, slow := range []bool{false, true} {
		a := arch
		a.SlowStep = slow
		var res *sim.Result
		d, _, err := c.measure(root, "sim", fmt.Sprintf("sim.Run slow=%v", slow), func() (err error) {
			res, err = sim.Run(ctx, w.Prog, comp, w.Entry, a, args...)
			return err
		})
		if err != nil {
			return err
		}
		if slow {
			t.slow += d
			t.slowInstrs += res.Instrs
		} else {
			t.fast += d
			t.fastInstrs += res.Instrs
		}
	}

	var enc []byte
	d, _, err = c.measure(root, "sim", "sim.EncodeTrace", func() (err error) {
		enc, err = sim.EncodeTrace(tr)
		return err
	})
	if err != nil {
		return err
	}
	t.encode += d
	t.traceB += int64(len(enc))
	d, _, err = c.measure(root, "sim", "sim.DecodeTrace", func() error {
		_, err := sim.DecodeTrace(enc)
		return err
	})
	if err != nil {
		return err
	}
	t.decode += d

	// A disk-tier round trip through an artifact store of its own: Put
	// writes the sealed trace, and after the memory tier is dropped Peek
	// loads and decodes it.
	d, _, _ = c.measure(root, "artifact", "Store.Put", func() error { store.Put(key, tr); return nil })
	t.put += d
	store.Reset()
	d, _, err = c.measure(root, "artifact", "Store.Peek", func() error {
		if _, ok := store.Peek(key); !ok {
			return fmt.Errorf("trace %s not loaded back from the disk tier", key)
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.load += d
	store.Reset()
	return nil
}

// resultRetainedKB measures the heap each held *sim.Result keeps alive
// after a collection; the harness stores charge 1 KiB per Result.
func resultRetainedKB(ctx context.Context, tg layerTarget) (float64, error) {
	_, comp, err := harness.Compile(tg.prog, tg.level, tg.cores)
	if err != nil {
		return 0, err
	}
	w, err := workloads.Get(tg.prog)
	if err != nil {
		return 0, err
	}
	const n = 4
	held := make([]*sim.Result, 0, n)
	before := liveHeapMB()
	for i := 0; i < n; i++ {
		res, err := sim.Run(ctx, w.Prog, comp, w.Entry, sim.HelixRC(tg.cores), w.TrainArgs...)
		if err != nil {
			return 0, err
		}
		held = append(held, res)
	}
	after := liveHeapMB()
	runtime.KeepAlive(held)
	return (after - before) * 1024 / n, nil
}

// paperSpeedup is the paper's HELIX-RC column of Figure 7 (as quoted in
// EXPERIMENTS.md), with its CINT2000 and CFP2000 geomeans.
var paperSpeedup = map[string]float64{
	"164.gzip": 3.0, "175.vpr": 6.1, "197.parser": 7.3, "300.twolf": 7.6, "181.mcf": 8.7,
	"256.bzip2": 12.0, "183.equake": 10.1, "179.art": 10.5, "188.ammp": 12.5, "177.mesa": 15.1,
}

const (
	paperCINTGeomean = 6.85
	paperCFPGeomean  = 12.0
)

// modelMetrics reports the simulated Figure 7 HELIX-RC speedups, each
// with its absolute error against the paper, in percent.
func (c *childRun) modelMetrics(ctx context.Context) error {
	f, err := harness.Figure7(ctx, 16)
	if err != nil {
		return err
	}
	l := c.rep.Layer
	errPct := func(got, paper float64) float64 { return math.Abs(got-paper) / paper * 100 }
	var cint, cfp []float64
	for i, row := range f.Rows {
		v := row.Values[len(row.Values)-1]
		l["model.speedup."+row.Name] = v
		l["model.speedup_err_pct."+row.Name] = errPct(v, paperSpeedup[row.Name])
		if i < len(workloads.IntNames()) {
			cint = append(cint, v)
		} else {
			cfp = append(cfp, v)
		}
	}
	l["model.cint_geomean"] = harness.Geomean(cint)
	l["model.cint_geomean_err_pct"] = errPct(l["model.cint_geomean"], paperCINTGeomean)
	l["model.cfp_geomean"] = harness.Geomean(cfp)
	l["model.cfp_geomean_err_pct"] = errPct(l["model.cfp_geomean"], paperCFPGeomean)
	return nil
}
