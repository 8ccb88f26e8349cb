// Command perfbench is the repository's benchmark: it runs one named
// workload through the harness, server and simulator public APIs,
// checks every output against a reference, and prints each metric by
// name and unit. See README.md for why each workload and metric exists.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sweep-wide --seed 1 --seconds 60 --trace 0
//
// Every timed repetition runs in a fresh child process (this binary
// with -child, at GOMAXPROCS=1), so caches, heap and peak RSS start
// clean. The parent repeats the workload for --seconds (at least
// minReps times) and reports medians. --trace 1 instead runs one
// untraced and one traced repetition and reports the per-layer
// metrics, with self times per layer and the tracing overhead.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"time"
)

// The workloads, in the order README.md describes them.
const (
	sweepWide  = "sweep-wide"
	serveMixed = "serve-mixed"
)

var workloadNames = []string{sweepWide, serveMixed}

const (
	// minReps is the fewest timed repetitions a run reports medians of.
	minReps = 3
	// setupProbes is how many extra set-up-only children a timed run
	// starts before each repetition, so setup_s is the median of many
	// set-ups spread over the whole run.
	setupProbes = 3
	// childProcs is the GOMAXPROCS of every child. On a host that
	// lends the benchmark two vCPUs of a shared machine, how much of
	// the second one a repetition gets depends on the other tenants,
	// and at GOMAXPROCS=2 that, not the program, set most of the
	// spread of wall time. One runnable thread leaves the kernel a
	// spare vCPU to move it to. README.md gives the measurements.
	childProcs = 1
	// runDeadline bounds one invocation; children still running past
	// it are killed, so the process always exits within its budget.
	runDeadline = 170 * time.Second
	// workRoot holds per-run cache directories and span files. It sits
	// under the build directory, which .gitignore names.
	workRoot = ".bench_build/perfbench"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int

	child     bool
	cacheDir  string
	spans     string
	setupOnly bool
	regen     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: sweep-wide or serve-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (drives the serve-mixed job sequences)")
	flag.IntVar(&o.seconds, "seconds", 20, "how long to repeat timed runs")
	flag.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
	flag.BoolVar(&o.child, "child", false, "run one repetition in this process and print its report (internal)")
	flag.StringVar(&o.cacheDir, "cachedir", "", "disk cache tier of a child repetition (internal)")
	flag.StringVar(&o.spans, "spans", "", "record spans, measure the per-layer direct calls and write the spans to this file (internal)")
	flag.BoolVar(&o.setupOnly, "setuponly", false, "stop a child repetition at its first timed operation (internal)")
	flag.StringVar(&o.regen, "regen", "", "recompute the reference file at this path with the reference stepper and exit")
	flag.Parse()

	switch {
	case o.regen != "":
		os.Exit(regenMain(o.regen))
	case o.child:
		os.Exit(childMain(o))
	}
	os.Exit(parentMain(o))
}

func parentMain(o options) int {
	switch {
	case !slices.Contains(workloadNames, o.workload):
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", o.workload, workloadNames)
		return 2
	case o.seconds < 1:
		fmt.Fprintf(os.Stderr, "perfbench: --seconds %d must be at least 1\n", o.seconds)
		return 2
	case o.trace != 0 && o.trace != 1:
		fmt.Fprintf(os.Stderr, "perfbench: --trace %d must be 0 or 1\n", o.trace)
		return 2
	}
	if _, err := os.Stat("scenarios"); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run from the repository root: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	work := filepath.Join(workRoot, fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	p := &parent{o: o, self: self, work: work}
	fmt.Printf("fingerprint: %s\n", mustJSON(hostFingerprint(o.seed)))

	var res *result
	if o.trace == 1 {
		res, err = p.traced(ctx)
	} else {
		res, err = p.timed(ctx)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(mustJSON(res))
	return 0
}

// parent drives child repetitions of one workload.
type parent struct {
	o    options
	self string
	work string
	n    int
}

// childArgs describes one child process.
type childArgs struct {
	workload string
	spans    string // "" runs untraced and skips the per-layer calls
	rep      int    // repetition index, which picks the child's seed
	setup    bool   // stop at the first timed operation
}

// sequenceSeed is the seed of repetition rep of a run seeded with seed.
// Each repetition of serve-mixed serves its own sequence, so a run's
// medians average over several sequences drawn from the run's seed
// rather than over one sequence's particular order.
func sequenceSeed(seed int64, rep int) int64 { return seed*1000 + int64(rep) }

// child runs one repetition in a fresh process with a fresh disk tier
// and returns its report, with setup time measured from just before
// the process was started.
func (p *parent) child(ctx context.Context, a childArgs) (*childReport, error) {
	p.n++
	cacheDir := filepath.Join(p.work, fmt.Sprintf("cache-%d", p.n))
	defer os.RemoveAll(cacheDir)
	args := []string{"-child", "-workload", a.workload, "-seed", strconv.FormatInt(sequenceSeed(p.o.seed, a.rep), 10), "-cachedir", cacheDir}
	if a.spans != "" {
		args = append(args, "-spans", a.spans)
	}
	if a.setup {
		args = append(args, "-setuponly")
	}
	cmd := exec.CommandContext(ctx, p.self, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", childProcs))
	cmd.Stderr = os.Stderr
	start := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s repetition: %w", a.workload, err)
	}
	var r childReport
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("%s repetition: bad report: %w", a.workload, err)
	}
	r.SetupS = float64(r.FirstOpNS-start.UnixNano()) / 1e9
	return &r, nil
}

// timed repeats the workload for the run's seconds and reports the
// median of every end-to-end metric over the repetitions; latencies
// says what the job percentiles are taken over. Another repetition
// starts only while one of the median length so far still ends within
// the run's seconds, so a run lasts its seconds, not one repetition
// more.
func (p *parent) timed(ctx context.Context) (*result, error) {
	var setup, lengths []float64
	start := time.Now()
	budget := time.Duration(p.o.seconds) * time.Second
	var reps []*childReport
	for len(reps) < minReps || time.Since(start)+time.Duration(median(lengths)*float64(time.Second)) <= budget {
		t0 := time.Now()
		for i := 0; i < setupProbes; i++ {
			r, err := p.child(ctx, childArgs{workload: p.o.workload, setup: true})
			if err != nil {
				return nil, err
			}
			setup = append(setup, r.SetupS)
		}
		r, err := p.child(ctx, childArgs{workload: p.o.workload, rep: len(reps)})
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		lengths = append(lengths, time.Since(t0).Seconds())
		fmt.Printf("rep %d: wall %.3fs cpu %.3fs setup %.3fs rss %.0fMB heap %.0fMB ops %d failed %d\n",
			len(reps), r.WallS, r.CPUS, r.SetupS, r.PeakRSSMB, r.RetainedHeapMB, len(r.Ops), r.failed())
	}
	var wall, cpu, rss, heap []float64
	res := newResult()
	for _, r := range reps {
		wall = append(wall, r.WallS)
		cpu = append(cpu, r.CPUS)
		setup = append(setup, r.SetupS)
		rss = append(rss, r.PeakRSSMB)
		heap = append(heap, r.RetainedHeapMB)
		res.count(r)
	}
	lat := latencies(p.o.workload, reps)
	res.put("wall_s", median(wall), "s")
	res.put("cpu_s", median(cpu), "s")
	res.put("setup_s", median(setup), "s")
	res.put("peak_rss_mb", median(rss), "MB")
	res.put("retained_heap_mb", median(heap), "MB")
	res.put("job_p50_ms", percentile(lat, 0.50), "ms")
	res.put("job_p95_ms", percentile(lat, 0.95), "ms")
	last := reps[len(reps)-1]
	fmt.Printf("job latency: %d samples from %d repetitions, %d beyond p95 (an operation is %s); setup: median of %d\n",
		len(lat), len(reps), beyond(lat, 0.95), opNoun(p.o.workload), len(setup))
	for _, note := range last.Notes {
		fmt.Println(note)
	}
	return res, nil
}

// latencies returns the operation latencies the job percentiles are
// taken over. serve-mixed serves a different sequence in every
// repetition, so its jobs are pooled. sweep-wide runs the same
// families in every repetition, so each family's latency is its median
// over the repetitions, as for every other metric; a percentile
// over those medians does not jump when noise reorders two operations
// of different length.
func latencies(workload string, reps []*childReport) []float64 {
	var pooled, out []float64
	byName := map[string][]float64{}
	var names []string
	for _, r := range reps {
		for _, op := range r.Ops {
			pooled = append(pooled, op.MS)
			if byName[op.Name] == nil {
				names = append(names, op.Name)
			}
			byName[op.Name] = append(byName[op.Name], op.MS)
		}
	}
	if workload == serveMixed {
		return pooled
	}
	for _, n := range names {
		out = append(out, median(byName[n]))
	}
	return out
}

// traced runs one untraced and one traced repetition and reports the
// traced run's per-layer metrics plus the tracing overhead.
func (p *parent) traced(ctx context.Context) (*result, error) {
	plain, err := p.child(ctx, childArgs{workload: p.o.workload})
	if err != nil {
		return nil, err
	}
	spanDir := filepath.Join(workRoot, "spans")
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	spans := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.json", p.o.workload, p.o.seed))
	tr, err := p.child(ctx, childArgs{workload: p.o.workload, spans: spans})
	if err != nil {
		return nil, err
	}
	tr.Layer["trace.overhead_s"] = tr.WallS - plain.WallS
	res := newResult()
	res.count(plain)
	res.count(tr)
	for _, m := range perLayerMetrics() {
		res.put(m.name, tr.Layer[m.name], m.unit)
	}
	for name := range tr.Layer {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s is missing from perLayerMetrics", name)
		}
	}
	fmt.Printf("spans written to %s\n", spans)
	for _, note := range tr.Notes {
		fmt.Println(note)
	}
	return res, nil
}

func opNoun(workload string) string {
	if workload == serveMixed {
		return "one served job"
	}
	return "one sweep family"
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) put(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// count adds a repetition's operations; any failed one makes the
// whole run incorrect.
func (r *result) count(c *childReport) {
	r.Attempted += len(c.Ops)
	f := c.failed()
	r.Failed += f
	if f > 0 {
		r.Correct = false
		for _, op := range c.Ops {
			if !op.OK {
				fmt.Printf("FAILED %s: %s\n", op.Name, op.Err)
			}
		}
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
