package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"helixrc/internal/artifact"
	"helixrc/internal/harness"
	"helixrc/internal/hcc"
	"helixrc/internal/scenarios"
)

// childReport is what one repetition prints for the parent.
type childReport struct {
	// FirstOpNS is the wall clock (Unix ns) at the first timed
	// operation; the parent turns it into setup_s.
	FirstOpNS      int64              `json:"first_op_ns"`
	WallS          float64            `json:"wall_s"`
	CPUS           float64            `json:"cpu_s"`
	PeakRSSMB      float64            `json:"peak_rss_mb"`
	RetainedHeapMB float64            `json:"retained_heap_mb"`
	Ops            []opResult         `json:"ops"`
	Layer          map[string]float64 `json:"layer"`
	Notes          []string           `json:"notes,omitempty"`

	SetupS float64 `json:"-"`
}

// opResult is one operation: an experiment, a sweep family or a job.
// It fails if it errors, is shed, or its output differs from the
// reference.
type opResult struct {
	Name string  `json:"name"`
	MS   float64 `json:"ms"`
	OK   bool    `json:"ok"`
	Err  string  `json:"err,omitempty"`
}

func (o *opResult) check(err error) {
	o.OK = err == nil
	if err != nil {
		o.Err = err.Error()
	}
}

func (c *childReport) failed() int {
	n := 0
	for _, op := range c.Ops {
		if !op.OK {
			n++
		}
	}
	return n
}

// childRun is one repetition in progress.
type childRun struct {
	ref *reference
	tr  *tracer
	rep *childReport
	// setupOnly ends the repetition at its first timed operation.
	setupOnly bool

	wall0  time.Time
	cpu0   time.Duration
	cache0 artifact.Stats
	rec0   int64
	rpl0   int64
	bat0   int64
	lane0  int64
}

func childMain(o options) int {
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	harness.SetQuiet()
	c := &childRun{ref: ref, rep: &childReport{Layer: map[string]float64{}}, setupOnly: o.setupOnly}
	if o.spans != "" {
		c.tr = newTracer()
	}
	ctx := context.Background()
	switch o.workload {
	case sweepWide:
		err = c.sweep(ctx)
	case serveMixed:
		err = c.serve(ctx, sequence(o.seed))
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err == nil && c.tr != nil {
		err = c.measureLayers(ctx, o.workload, o.cacheDir)
	}
	if err == nil && c.tr != nil {
		// Self times cover the per-layer calls too, so they are summed
		// only once those have run.
		for layer, ms := range layerSelfMS(c.tr.spans) {
			c.rep.Layer["trace.self_ms."+layer] = ms
		}
		c.rep.Layer["trace.spans"] = float64(len(c.tr.spans))
		err = c.tr.write(o.spans)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", o.workload, err)
		return 1
	}
	fmt.Println(mustJSON(c.rep))
	return 0
}

// begin marks the first timed operation and snapshots the counters the
// per-layer metrics are deltas of. It reports false when the
// repetition measures set-up only and must stop here.
func (c *childRun) begin() bool {
	c.wall0 = time.Now()
	c.rep.FirstOpNS = c.wall0.UnixNano()
	if c.setupOnly {
		return false
	}
	c.cpu0 = cpuTime()
	c.cache0 = harness.CacheStats()
	c.rec0, c.rpl0 = harness.ReplayStats()
	c.bat0, c.lane0, _ = harness.BatchStats()
	return true
}

// endTimed closes the timed part.
func (c *childRun) endTimed() {
	c.rep.WallS = time.Since(c.wall0).Seconds()
	c.rep.CPUS = (cpuTime() - c.cpu0).Seconds()
}

// finish records the counter deltas of the timed part, then the live
// heap with the harness caches still referenced.
func (c *childRun) finish() {
	r := c.rep

	cs := harness.CacheStats().Delta(c.cache0)
	rec, rpl := harness.ReplayStats()
	bat, lanes, _ := harness.BatchStats()
	rec, rpl, bat, lanes = rec-c.rec0, rpl-c.rpl0, bat-c.bat0, lanes-c.lane0
	l := r.Layer
	l["harness.recordings"] = float64(rec)
	l["harness.replays"] = float64(rpl)
	l["harness.batches"] = float64(bat)
	l["harness.batch_lanes"] = float64(lanes)
	// ReplayStats counts every batched lane as a replay too.
	l["harness.replays_per_recording"] = ratio(float64(rpl), float64(rec))
	l["artifact.mem_hits"] = float64(cs.MemHits)
	l["artifact.mem_misses"] = float64(cs.MemMisses)
	l["artifact.mem_hit_ratio"] = ratio(float64(cs.MemHits), float64(cs.MemHits+cs.MemMisses))
	l["artifact.evictions"] = float64(cs.Evictions)
	l["artifact.evicted_mb"] = float64(cs.EvictedBytes) / (1 << 20)

	r.RetainedHeapMB = liveHeapMB()
	r.PeakRSSMB = peakRSSMB()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// checkFigure compares a figure job's output with its experiment's
// reference hash.
func (r *reference) checkFigure(name, out string) error {
	want, ok := r.Figures[name]
	if !ok {
		return fmt.Errorf("no reference hash for %s", name)
	}
	sum := sha256.Sum256([]byte(out))
	if got := hex.EncodeToString(sum[:]); got != want {
		return fmt.Errorf("%s output sha256 %s, reference %s", name, got, want)
	}
	return nil
}

// The sweep-wide grid: 4 core counts × 3 alias tiers × 6 link
// latencies × 4 signal depths, in helix-explore's canonical order.
const sweepLevel = hcc.V3

var sweepGrid = func() []harness.SweepConfig {
	var g []harness.SweepConfig
	for _, cores := range []int{2, 4, 8, 16} {
		for _, tier := range []int{1, 3, 5} {
			for _, link := range []int{1, 2, 4, 8, 16, 32} {
				for _, sig := range []int{0, 1, 2, 4} {
					g = append(g, harness.SweepConfig{Cores: cores, Tier: tier, Link: link, Signals: sig})
				}
			}
		}
	}
	return g
}()

type sweepFamily struct {
	name      string
	scenarios []string
}

// loadSweepFamilies loads and registers every checked-in scenario pack.
func loadSweepFamilies() ([]sweepFamily, error) {
	packs, err := scenarios.LoadDir("scenarios")
	if err != nil {
		return nil, err
	}
	var out []sweepFamily
	for _, p := range packs {
		if err := scenarios.RegisterPack(p); err != nil {
			return nil, err
		}
		f := sweepFamily{name: p.Family}
		for _, m := range p.Scenarios {
			f.scenarios = append(f.scenarios, m.Name)
		}
		out = append(out, f)
	}
	return out, nil
}

// sweepDigest hashes a family's cells, cell i being grid point
// i/len(scen) on scenario i%len(scen), with every speedup at full
// precision.
func sweepDigest(scen []string, cells []float64) string {
	var sb strings.Builder
	for i, v := range cells {
		g := sweepGrid[i/len(scen)]
		fmt.Fprintf(&sb, "%s c%d t%d l%d s%d %s\n", scen[i%len(scen)], g.Cores, g.Tier, g.Link, g.Signals,
			strconv.FormatFloat(v, 'g', -1, 64))
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

// sweep runs the design-space sweep family by family: the batched
// prefetch of every trace's timing lanes, then every cell.
func (c *childRun) sweep(ctx context.Context) error {
	fams, err := loadSweepFamilies()
	if err != nil {
		return err
	}
	var prefetch, cells time.Duration
	if !c.begin() {
		return nil
	}
	for _, f := range fams {
		root := c.tr.begin(spanRef{}, "perfbench", "family "+f.name)
		t0 := time.Now()
		s := c.tr.begin(root, "harness", "PrefetchSweep")
		harness.PrefetchSweep(ctx, f.scenarios, sweepLevel, sweepGrid)
		c.tr.end(s)
		t1 := time.Now()
		ns := len(f.scenarios)
		vals, err := harness.ParMap(ctx, len(sweepGrid)*ns, func(ctx context.Context, i int) (float64, error) {
			s := c.tr.begin(root, "harness", "SweepCell")
			defer c.tr.end(s)
			return harness.SweepCell(ctx, f.scenarios[i%ns], sweepLevel, sweepGrid[i/ns])
		})
		t2 := time.Now()
		if err == nil {
			if got, want := sweepDigest(f.scenarios, vals), c.ref.Sweep[f.name]; got != want {
				err = fmt.Errorf("family %s cells sha256 %s, reference %s", f.name, got, want)
			}
		}
		c.tr.end(root)
		prefetch += t1.Sub(t0)
		cells += t2.Sub(t1)
		op := opResult{Name: f.name, MS: ms(t2.Sub(t0))}
		op.check(err)
		c.rep.Ops = append(c.rep.Ops, op)
	}
	c.rep.Layer["harness.sweep_prefetch_ms"] = ms(prefetch)
	c.rep.Layer["harness.sweep_cells_ms"] = ms(cells)
	c.endTimed()
	c.finish()
	return nil
}
