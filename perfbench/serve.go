package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"helixrc/internal/benchreport"
	"helixrc/internal/server"
)

const (
	// serveClients is the number of closed-loop clients: no more than
	// the CPUs of the 2-CPU reference host.
	serveClients = 2
	// pollInterval sits well below the median job latency, so the
	// latency measures the daemon rather than the poller;
	// server.polls_per_job shows whether it does.
	pollInterval = time.Millisecond
)

// jobView is the part of GET /jobs/{id} the client reads.
type jobView struct {
	ID      string            `json:"id"`
	Status  string            `json:"status"`
	Error   string            `json:"error"`
	Result  *server.JobResult `json:"result"`
	QueueMS float64           `json:"queue_ms"`
	RunMS   float64           `json:"run_ms"`
}

// jobOutcome is what the client saw of one job.
type jobOutcome struct {
	job     job
	latency time.Duration // submission until the client saw the result
	submit  time.Duration // the POST round trip
	polls   int
	view    jobView
	err     error
}

// client drives a daemon over loopback HTTP with closed-loop workers
// that take the sequence's jobs in order.
type client struct {
	base string
	http *http.Client
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	t := &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}
	return &client{base: base, http: &http.Client{Transport: t}, tr: tr}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// run serves every job of seq and returns the outcomes in sequence
// order. It returns once every worker has drained.
func (c *client) run(ctx context.Context, seq []job) []jobOutcome {
	out := make([]jobOutcome, len(seq))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(seq) {
					return
				}
				out[i] = c.do(ctx, seq[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// do submits one job and polls until it ends.
func (c *client) do(ctx context.Context, j job) jobOutcome {
	o := jobOutcome{job: j}
	root := c.tr.begin(spanRef{}, "perfbench", "job "+j.Class)
	defer c.tr.end(root)
	t0 := time.Now()
	body, _ := json.Marshal(j.Req)
	s := c.tr.begin(root, "server", "POST /jobs")
	code, err := c.call(ctx, http.MethodPost, "/jobs", body, &o.view)
	c.tr.end(s)
	o.submit = time.Since(t0)
	switch {
	case err != nil:
		o.err = err
		return o
	case code == http.StatusTooManyRequests:
		o.err = errors.New("shed with 429")
		return o
	case code != http.StatusAccepted:
		o.err = fmt.Errorf("submit: HTTP %d: %s", code, o.view.Error)
		return o
	}
	id := o.view.ID
	for !terminal(o.view.Status) {
		waitPoll()
		s := c.tr.begin(root, "server", "GET /jobs/{id}")
		code, err := c.call(ctx, http.MethodGet, "/jobs/"+id, nil, &o.view)
		c.tr.end(s)
		o.polls++
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("poll: HTTP %d", code)
		}
		if err != nil {
			o.err = err
			return o
		}
	}
	o.latency = time.Since(t0)
	if o.view.Status != "done" {
		o.err = fmt.Errorf("job ended %s: %s", o.view.Status, o.view.Error)
	}
	return o
}

// waitPoll waits one poll interval by yielding the thread rather than
// sleeping. At GOMAXPROCS=1 a sleep with no job running leaves the
// process idle, and on a shared host the vCPU it idled took
// milliseconds to wake: up to a second per repetition of wall time
// beyond CPU time, which the job latencies then measured. Yielding lets
// the daemon's goroutines run first and keeps the thread awake when
// they have nothing to do.
func waitPoll() {
	for t := time.Now(); time.Since(t) < pollInterval; {
		runtime.Gosched()
	}
}

func terminal(status string) bool {
	return status == "done" || status == "error" || status == "canceled"
}

// call makes one request and decodes its JSON body into v.
func (c *client) call(ctx context.Context, method, path string, body []byte, v any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// daemon is an in-process helix-serve listening on loopback.
type daemon struct {
	srv   *server.Server
	hs    *http.Server
	base  string
	serve chan error
}

// startDaemon builds the daemon with empty caches and returns once
// /healthz answers 200.
func startDaemon(ctx context.Context) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: server.New(server.Config{Concurrency: serveClients}), base: "http://" + ln.Addr().String(), serve: make(chan error, 1)}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.serve <- d.hs.Serve(ln) }()
	if err := server.WaitReady(ctx, d.base, 10*time.Second); err != nil {
		d.stop(ctx)
		return nil, err
	}
	return d, nil
}

// stop drains the job queue, then the HTTP server, and waits for the
// serving goroutine to end.
func (d *daemon) stop(ctx context.Context) error {
	err := d.srv.Shutdown(ctx)
	if herr := d.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-d.serve; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// serve drives the daemon with seq and checks every job's result.
func (c *childRun) serve(ctx context.Context, seq []job) error {
	d, err := startDaemon(ctx)
	if err != nil {
		return err
	}
	if !c.begin() {
		return d.stop(ctx)
	}
	cl := newClient(d.base, c.tr)
	defer cl.close()
	outs := cl.run(ctx, seq)
	c.endTimed()
	var snap benchreport.Serve
	_, merr := cl.call(ctx, http.MethodGet, "/metrics", nil, &snap)
	if err := d.stop(ctx); err != nil {
		return fmt.Errorf("daemon shutdown: %w", err)
	}
	if merr != nil {
		return merr
	}
	c.finish()
	c.serveMetrics(outs, &snap)
	return nil
}

// serveMetrics records every job as an operation and derives the
// server-layer metrics from the job views and /metrics.
func (c *childRun) serveMetrics(outs []jobOutcome, snap *benchreport.Serve) {
	var queue, submit []float64
	run := map[string][]float64{}
	polls := 0
	classes := map[string]int{}
	for _, o := range outs {
		err := o.err
		if err == nil {
			err = c.ref.checkJob(o.job, o.view.Result)
		}
		op := opResult{Name: o.job.Class, MS: ms(o.latency)}
		op.check(err)
		c.rep.Ops = append(c.rep.Ops, op)
		queue = append(queue, o.view.QueueMS)
		submit = append(submit, ms(o.submit))
		run[o.job.Req.Kind] = append(run[o.job.Req.Kind], o.view.RunMS)
		polls += o.polls
		classes[o.job.Class]++
	}
	l := c.rep.Layer
	l["server.queue_ms_p50"] = percentile(queue, 0.5)
	l["server.queue_ms_p95"] = percentile(queue, 0.95)
	for _, kind := range []string{"compile", "simulate", "figure"} {
		l["server.run_ms_p50."+kind] = percentile(run[kind], 0.5)
		l["server.run_ms_p95."+kind] = percentile(run[kind], 0.95)
	}
	l["server.submit_ms_p95"] = percentile(submit, 0.95)
	l["server.polls_per_job"] = ratio(float64(polls), float64(len(outs)))
	l["server.sheds"] = float64(snap.Shed)
	l["server.queue_depth_max"] = float64(snap.QueueDepthMax)
	l["server.job_samples"] = float64(len(outs))

	sims := float64(len(outs) - classes[classCompile] - classes[classFigure])
	rec, rpl := l["harness.recordings"], l["harness.replays"]
	l["server.share_recorded"] = ratio(rec, sims)
	l["server.share_replayed"] = ratio(rpl, sims)
	l["server.share_cache_hit"] = math.Max(0, 1-ratio(rec+rpl, sims))
	c.rep.Notes = append(c.rep.Notes, fmt.Sprintf(
		"serve-mixed: %d jobs (%d record, %d new-config, %d repeat, %d compile, %d figure); per simulate job measured %.3f recorded, %.3f replayed, %.3f served from cache",
		len(outs), classes[classRecord], classes[classNewConfig], classes[classRepeat], classes[classCompile], classes[classFigure],
		l["server.share_recorded"], l["server.share_replayed"], l["server.share_cache_hit"]))
}

// checkJob compares a finished job's result with the reference.
func (r *reference) checkJob(j job, res *server.JobResult) error {
	if res == nil {
		return errors.New("no result")
	}
	if res.Partial {
		return errors.New("partial result")
	}
	req := j.Req
	switch req.Kind {
	case "figure":
		return r.checkFigure(req.Experiment, res.Output)
	case "compile", "simulate":
		want, ok := r.Compile[compileKey(req.Workload, req.Level, req.Cores)]
		if !ok {
			return fmt.Errorf("no compile reference for %s", compileKey(req.Workload, req.Level, req.Cores))
		}
		if res.Coverage != want.Coverage || res.Loops != want.Loops {
			return fmt.Errorf("compile coverage %v loops %d, reference %v loops %d", res.Coverage, res.Loops, want.Coverage, want.Loops)
		}
		if req.Kind == "compile" {
			return nil
		}
	default:
		return fmt.Errorf("unknown job kind %q", req.Kind)
	}
	id := traceIdentity{req.Workload, req.Ref, req.Level, req.Cores}
	seq, ok := r.Baseline[baselineKey(req.Workload, req.Ref)]
	par, ok2 := r.Parallel[id.key()]
	if !ok || !ok2 || j.timingIdx >= len(par) {
		return fmt.Errorf("no simulate reference for %s timing %d", id.key(), j.timingIdx)
	}
	if res.SeqCycles != seq.Cycles || res.ParCycles != par[j.timingIdx] || res.RetValue != seq.RetValue {
		return fmt.Errorf("%s timing %v: cycles seq %d par %d ret %d, reference seq %d par %d ret %d",
			id.key(), timingSpace[j.timingIdx], res.SeqCycles, res.ParCycles, res.RetValue, seq.Cycles, par[j.timingIdx], seq.RetValue)
	}
	if want := float64(seq.Cycles) / float64(par[j.timingIdx]); res.Speedup != want {
		return fmt.Errorf("%s speedup %v, reference %v", id.key(), res.Speedup, want)
	}
	return nil
}
