package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"helixrc/internal/harness"
)

func TestSequenceDeterministic(t *testing.T) {
	a, b := sequence(7), sequence(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced two different job sequences")
	}
	if reflect.DeepEqual(a, sequence(8)) {
		t.Fatal("seeds 7 and 8 produced the same job sequence")
	}
}

func TestSequenceComposition(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3, 99} {
		seq := sequence(seed)
		if len(seq) != seqJobs {
			t.Fatalf("seed %d: %d jobs, want %d", seed, len(seq), seqJobs)
		}
		count := map[string]int{}
		seen := map[string]bool{}
		for i, j := range seq {
			count[j.Class]++
			key := mustJSON(j.Req)
			switch j.Class {
			case classRecord, classNewConfig:
				if seen[key] {
					t.Errorf("seed %d job %d: %s repeats an earlier request", seed, i, j.Class)
				}
			case classRepeat:
				if !seen[key] {
					t.Errorf("seed %d job %d: repeat of a request not yet made", seed, i)
				}
			}
			seen[key] = true
			if j.Req.Kind == "simulate" {
				id := traceIdentity{j.Req.Workload, j.Req.Ref, j.Req.Level, j.Req.Cores}
				if _, ok := ref.Parallel[id.key()]; !ok {
					t.Errorf("seed %d job %d: no reference for %s", seed, i, id.key())
				}
			}
		}
		want := map[string]int{classRecord: 20, classCompile: seqCompiles, classFigure: seqFigures, classRepeat: seqRepeats}
		want[classNewConfig] = seqJobs - 20 - seqCompiles - seqFigures - seqRepeats
		if !reflect.DeepEqual(count, want) {
			t.Errorf("seed %d: class counts %v, want %v", seed, count, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100] has children a [10,40] and b [30,60] (overlapping,
	// as concurrent calls do) and c [90,120] (running past its parent);
	// a has child d [15,25].
	spans := []Span{
		{ID: 1, Trace: 1, Layer: "perfbench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Trace: 1, Layer: "harness", Start: 10, End: 40},
		{ID: 3, Parent: 1, Trace: 1, Layer: "harness", Start: 30, End: 60},
		{ID: 4, Parent: 1, Trace: 1, Layer: "sim", Start: 90, End: 120},
		{ID: 5, Parent: 2, Trace: 1, Layer: "sim", Start: 15, End: 25},
	}
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 30, 5: 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	layers := layerSelfMS(spans)
	if layers["perfbench"] != 40e-6 || layers["harness"] != 50e-6 || layers["sim"] != 40e-6 {
		t.Fatalf("layer self times %v", layers)
	}
}

func TestTracerRecordsTree(t *testing.T) {
	tr := newTracer()
	root := tr.begin(spanRef{}, "perfbench", "op")
	child := tr.begin(root, "harness", "call")
	tr.end(child)
	tr.end(root)
	other := tr.begin(spanRef{}, "perfbench", "op2")
	tr.end(other)
	s := tr.spans
	if s[1].Parent != s[0].ID || s[1].Trace != s[0].Trace || s[2].Trace == s[0].Trace {
		t.Fatalf("span tree wrong: %+v", s)
	}
	var none *tracer
	none.end(none.begin(spanRef{}, "x", "y")) // a nil tracer records nothing
}

func TestTracerConcurrent(t *testing.T) {
	tr := newTracer()
	root := tr.begin(spanRef{}, "perfbench", "op")
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				tr.end(tr.begin(root, "harness", "call"))
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	tr.end(root)
	if len(tr.spans) != 801 {
		t.Fatalf("%d spans, want 801", len(tr.spans))
	}
	for _, s := range tr.spans {
		if s.End < s.Start || s.Trace != root.trace {
			t.Fatalf("bad span %+v", s)
		}
	}
}

func TestTamperedReferenceIsAFailedOperation(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	ref.Figures["fig4"] = strings.Repeat("0", 64)
	harness.SetQuiet()
	c := &childRun{ref: ref, rep: &childReport{Layer: map[string]float64{}}}
	seq := []job{{Class: classFigure, Req: figureJob("fig4")}, {Class: classFigure, Req: figureJob("fig2")}}
	if err := c.serve(context.Background(), seq); err != nil {
		t.Fatalf("a mismatch must not abort the run: %v", err)
	}
	if len(c.rep.Ops) != 2 || c.rep.failed() != 1 || !strings.Contains(c.rep.Ops[0].Err, "reference") {
		t.Fatalf("ops %+v: want the fig4 job failed, naming the reference, and the fig2 job passed", c.rep.Ops)
	}
}

func TestServeClientDrains(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	harness.SetQuiet()
	before := runtime.NumGoroutine()
	var id traceIdentity
	for _, i := range serveIdentities() {
		if i.prog == "179.art" && !i.ref {
			id = i
		}
	}
	sim := job{Class: classRecord, Req: id.request(timingSpace[5]), timingIdx: 5}
	seq := []job{
		sim,
		{Class: classCompile, Req: compileJob("177.mesa", 2, 4)},
		{Class: classFigure, Req: figureJob("fig4")},
		{Class: classRepeat, Req: sim.Req, timingIdx: 5},
		{Class: classCompile, Req: compileJob("179.art", 3, 8)},
	}
	ctx := context.Background()
	d, err := startDaemon(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cl := newClient(d.base, nil)
	outs := cl.run(ctx, seq)
	if err := d.stop(ctx); err != nil {
		t.Fatalf("daemon did not drain: %v", err)
	}
	cl.close()
	if len(outs) != len(seq) {
		t.Fatalf("%d outcomes for %d jobs", len(outs), len(seq))
	}
	for i, o := range outs {
		if o.err != nil || o.view.Status != "done" {
			t.Fatalf("job %d (%s): status %q err %v", i, o.job.Class, o.view.Status, o.err)
		}
		if err := ref.checkJob(o.job, o.view.Result); err != nil {
			t.Fatalf("job %d (%s): %v", i, o.job.Class, err)
		}
	}
	// Every client, handler and queue goroutine has ended.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the run, %d before", n, before)
	}
}

// TestPerLayerMetricsMatchBenchmark keeps perLayerMetrics and the
// per_layer list of BENCHMARK.json the same, names and units in order.
func TestPerLayerMetricsMatchBenchmark(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var declared, listed []string
	for _, m := range bench.PerLayer {
		declared = append(declared, m.Name+" "+m.Unit)
	}
	for _, m := range perLayerMetrics() {
		listed = append(listed, m.name+" "+m.unit)
	}
	if !slices.Equal(declared, listed) {
		t.Fatalf("BENCHMARK.json per_layer and perLayerMetrics differ:\n%v\n%v", declared, listed)
	}
}

func TestReferenceFigureHashes(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	want, err := benchHashes("../BENCH_2026-08-07.json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Figures, want) {
		t.Fatalf("reference.json figure hashes differ from the BENCH report:\n%v\n%v", ref.Figures, want)
	}
}

func TestLatencies(t *testing.T) {
	reps := []*childReport{
		{Ops: []opResult{{Name: "reduction", MS: 10}, {Name: "deep-nest", MS: 100}}},
		{Ops: []opResult{{Name: "reduction", MS: 30}, {Name: "deep-nest", MS: 300}}},
		{Ops: []opResult{{Name: "reduction", MS: 20}, {Name: "deep-nest", MS: 200}}},
	}
	if got := latencies(sweepWide, reps); !reflect.DeepEqual(got, []float64{20, 200}) {
		t.Errorf("sweep-wide latencies %v, want each family's median", got)
	}
	if got := latencies(serveMixed, reps); len(got) != 6 {
		t.Errorf("serve-mixed latencies %v, want all 6 jobs pooled", got)
	}
}
