package main

import (
	"fmt"
	"math/rand"

	"helixrc/internal/server"
	"helixrc/internal/sim"
	"helixrc/internal/workloads"
)

// The serve-mixed job space. Its bounds are what reference.json
// covers: every request any seed can generate has a reference.
var (
	// identityLevels and identityCores are the compile levels and core
	// counts the trace identities mix.
	identityLevels = []int{2, 3}
	identityCores  = []int{8, 16}
	// compileLevels and compileCores span the compile jobs.
	compileLevels = []int{1, 2, 3}
	compileCores  = []int{4, 8, 16}
	// lightFigures are the figure jobs: cheap experiments that still
	// take the daemon's experiment lock exclusively.
	lightFigures = []string{"fig2", "fig3", "fig4"}
	// timingSpace is every ring timing a simulate job may request.
	timingSpace = func() []timing {
		var out []timing
		for _, link := range []int{1, 2, 4, 8} {
			for _, sig := range []int{0, 1, 4} {
				for _, node := range []int{0, 1024, 256} {
					out = append(out, timing{link, sig, node})
				}
			}
		}
		return out
	}()
)

// The composition of one sequence. Every seed draws the same counts
// over the same twenty trace identities (serveIdentities), so seeds
// differ in job order, ring knobs, repeats and compile jobs but not in
// how much recording, replay and cache-hit work they ask for.
const (
	seqJobs     = 300
	seqCompiles = 15
	seqFigures  = 8
	seqRepeats  = 57
)

// Job classes, by what a simulate job should cost a daemon that has
// served the sequence so far.
const (
	classRecord    = "record"     // first job on a trace identity: a new recording
	classNewConfig = "new-config" // held trace, timing not yet seen: a replay
	classRepeat    = "repeat"     // exact repeat of an earlier job: a cache hit
	classCompile   = "compile"
	classFigure    = "figure"
)

// timing is one ring configuration of a simulate job.
type timing struct{ Link, Signals, Node int }

// traceIdentity is what a recorded trace depends on: program, input,
// compile level and core count.
type traceIdentity struct {
	prog  string
	ref   bool
	level int
	cores int
}

func (id traceIdentity) key() string {
	return fmt.Sprintf("%s/%s/L%d/c%d", id.prog, inputName(id.ref), id.level, id.cores)
}

// request is the simulate job for this identity under t.
func (id traceIdentity) request(t timing) server.JobRequest {
	link, sig, node := t.Link, t.Signals, t.Node
	return server.JobRequest{
		Kind: "simulate", Workload: id.prog, Level: id.level, Cores: id.cores, Ref: id.ref,
		LinkLatency: &link, SignalBandwidth: &sig, NodeBytes: &node,
	}
}

// arch is the machine a simulate job for this identity under t runs on.
func (id traceIdentity) arch(t timing) sim.Config {
	c := sim.HelixRC(id.cores)
	c.Ring.LinkLatency = t.Link
	c.Ring.SignalBandwidth = t.Signals
	c.Ring.ArrayBytes = t.Node
	return c
}

// serveIdentities are the trace identities of every sequence: each
// program on each input, with levels and core counts alternating so
// that both levels and both core counts meet both inputs.
func serveIdentities() []traceIdentity {
	var out []traceIdentity
	for i, p := range workloads.Names() {
		for r, ref := range []bool{false, true} {
			out = append(out, traceIdentity{p, ref, identityLevels[(i+r)%2], identityCores[(i/2+r)%2]})
		}
	}
	return out
}

// job is one request of a serve-mixed sequence.
type job struct {
	Class string
	Req   server.JobRequest
	// timingIdx indexes timingSpace for simulate jobs.
	timingIdx int
}

// sequence generates the serve-mixed job sequence for seed. The same
// seed always yields the same sequence.
func sequence(seed int64) []job {
	rng := rand.New(rand.NewSource(seed))
	var pending []*heldTrace
	for _, id := range serveIdentities() {
		pending = append(pending, &heldTrace{id: id, unseen: rng.Perm(len(timingSpace))})
	}
	rng.Shuffle(len(pending), func(i, j int) { pending[i], pending[j] = pending[j], pending[i] })

	left := map[string]int{
		classRecord:  len(pending),
		classCompile: seqCompiles,
		classFigure:  seqFigures,
		classRepeat:  seqRepeats,
	}
	left[classNewConfig] = seqJobs - len(pending) - seqCompiles - seqFigures - seqRepeats
	classes := []string{classRecord, classNewConfig, classRepeat, classCompile, classFigure}

	// Figure jobs cycle through the light figures and compile jobs
	// through the programs, each in a seeded order, so every seed asks
	// for the same figure mix and spreads its compiles over programs.
	var figures []string
	for len(figures) < seqFigures {
		figures = append(figures, lightFigures...)
	}
	figures = figures[:seqFigures]
	rng.Shuffle(len(figures), func(i, j int) { figures[i], figures[j] = figures[j], figures[i] })
	names := workloads.Names()
	var compiles []int
	for len(compiles) < seqCompiles {
		compiles = append(compiles, rng.Perm(len(names))...)
	}

	var live []*heldTrace
	var sims []job
	out := make([]job, 0, seqJobs)
	for len(out) < seqJobs {
		// Draw a class in proportion to what is left of it, among the
		// classes the sequence so far makes possible.
		total := 0
		weight := map[string]int{}
		for _, c := range classes {
			w := left[c]
			if (c == classNewConfig && leastUsed(live) == nil) || (c == classRepeat && len(sims) == 0) {
				w = 0
			}
			weight[c] = w
			total += w
		}
		if total == 0 {
			// Unreachable: a recording is eligible while any is left,
			// and once all are held they have far more unseen timings
			// than the sequence has replays.
			panic("perfbench: job sequence has no eligible class")
		}
		pick := rng.Intn(total)
		var class string
		for _, c := range classes {
			if pick < weight[c] {
				class = c
				break
			}
			pick -= weight[c]
		}
		left[class]--

		var j job
		switch class {
		case classRecord:
			h := pending[0]
			pending = pending[1:]
			live = append(live, h)
			j = h.take(classRecord)
		case classNewConfig:
			j = leastUsed(live).take(classNewConfig)
		case classRepeat:
			j = sims[rng.Intn(len(sims))]
			j.Class = classRepeat
		case classCompile:
			j = job{Class: classCompile, Req: compileJob(names[compiles[0]],
				compileLevels[rng.Intn(len(compileLevels))], compileCores[rng.Intn(len(compileCores))])}
			compiles = compiles[1:]
		case classFigure:
			j = job{Class: classFigure, Req: figureJob(figures[0])}
			figures = figures[1:]
		}
		if j.Req.Kind == "simulate" && class != classRepeat {
			sims = append(sims, j)
		}
		out = append(out, j)
	}
	return out
}

func compileJob(prog string, level, cores int) server.JobRequest {
	return server.JobRequest{Kind: "compile", Workload: prog, Level: level, Cores: cores}
}

func figureJob(experiment string) server.JobRequest {
	return server.JobRequest{Kind: "figure", Experiment: experiment, Cores: 16}
}

// heldTrace is a trace identity of a sequence and the timings it has
// not been requested under yet.
type heldTrace struct {
	id     traceIdentity
	unseen []int // timingSpace indices, in the order they will be used
	uses   int
}

// take returns the next simulate job on h, under a timing not yet seen.
func (h *heldTrace) take(class string) job {
	i := h.unseen[0]
	h.unseen = h.unseen[1:]
	h.uses++
	return job{Class: class, Req: h.id.request(timingSpace[i]), timingIdx: i}
}

// leastUsed returns the held trace with unseen timings that has served
// the fewest jobs, so replays spread evenly over the traces the daemon
// holds; nil when none has an unseen timing left.
func leastUsed(live []*heldTrace) *heldTrace {
	var best *heldTrace
	for _, h := range live {
		if len(h.unseen) > 0 && (best == nil || h.uses < best.uses) {
			best = h
		}
	}
	return best
}
