package hcc

import (
	"fmt"
	"sort"

	"helixrc/internal/alias"
	"helixrc/internal/cfg"
	"helixrc/internal/ddg"
	"helixrc/internal/induction"
	"helixrc/internal/interp"
	"helixrc/internal/ir"
)

// Compile runs the full HCC pipeline on prog: profile the training run,
// analyze every loop, select the profitable ones and generate parallel
// bodies. entry is the function executed by the training run (and later by
// the simulator).
func Compile(prog *ir.Program, entry *ir.Function, opts Options) (*Compiled, error) {
	opts.fillDefaults()
	prog.AssignUIDs()
	if err := prog.Verify(); err != nil {
		return nil, fmt.Errorf("hcc: input program: %w", err)
	}

	graphs := map[*ir.Function]*cfg.Graph{}
	forests := map[*ir.Function]*cfg.Forest{}
	// One liveness per function with loops, shared by the dependence
	// analysis of every candidate and the code generation of every
	// selected loop (neither changes the function's code).
	lives := map[*ir.Function]*cfg.Liveness{}
	for _, f := range prog.Funcs {
		g := cfg.New(f)
		graphs[f] = g
		forests[f] = cfg.FindLoops(g)
		if len(forests[f].Loops) > 0 {
			lives[f] = cfg.ComputeLiveness(g)
		}
	}

	profiler := &interp.Profiler{
		Prog:     prog,
		Forests:  forests,
		RingSize: opts.Cores,
		Budget:   opts.ProfileBudget,
	}
	profile, err := profiler.Run(entry, opts.TrainArgs...)
	if err != nil {
		return nil, fmt.Errorf("hcc: profiling: %w", err)
	}

	tier, err := opts.aliasTier()
	if err != nil {
		return nil, err
	}
	an := alias.New(prog, tier)

	out := &Compiled{Prog: prog, Level: opts.Level, Options: opts, Profile: profile}

	var cands []candidate

	for _, lp := range profile.LoopsBy() {
		loop := lp.Loop
		fn := lp.Fn
		g := graphs[fn]
		reject := func(reason string, est float64) {
			out.Rejected = append(out.Rejected, RejectedLoop{Loop: loop, Fn: fn, Reason: reason, Estimate: est})
		}
		if lp.Iterations < 2 || lp.AvgIterLen() <= 0 {
			reject("no dynamic iterations", 0)
			continue
		}
		if len(loop.Latches) != 1 {
			reject("multiple latches", 0)
			continue
		}
		bad := false
		for _, b := range loop.Blocks {
			if t := b.Terminator(); t == nil || t.Op == ir.OpRet {
				bad = true
			}
			for i := range b.Instrs {
				if b.Instrs[i].Op == ir.OpAlloc {
					bad = true
				}
			}
		}
		if bad {
			reject("return or allocation inside loop", 0)
			continue
		}

		dg := ddg.Build(prog, fn, g, lives[fn], loop, an)
		classes := induction.Classify(fn, g, loop, dg.CarriedRegs)
		if !opts.Level.FullPredictability() {
			// HCCv1 only understands linear inductions: demote the rest.
			for r, info := range classes {
				switch info.Class {
				case induction.ClassPoly2, induction.ClassAccum, induction.ClassLastValue:
					info.Class = induction.ClassShared
					classes[r] = info
				}
			}
		}
		seg := buildSegments(opts.Level, dg, classes)
		if seg.sharedInCallee {
			reject("shared data accessed inside callee", 0)
			continue
		}
		if seg.clobberCall {
			reject("opaque library call with memory effects", 0)
			continue
		}
		freq := func(b *ir.Block) float64 {
			if lp.Iterations == 0 {
				return 1
			}
			f := float64(profile.BlockCount[b]) / float64(lp.Iterations)
			if f > 0 && f < 0.01 {
				f = 0.01
			}
			return f
		}
		spans, accCounts := estimateSpans(opts.Level, g, loop, seg, freq)
		counted := isCounted(g, loop, classes)
		// Inserted per-iteration code: prologue recomputation, control
		// check, slot moves and wait/signal instructions.
		overhead := 2.0
		if !counted {
			overhead += 4
		}
		for _, info := range classes {
			switch info.Class {
			case induction.ClassInduction:
				overhead += 2
			case induction.ClassPoly2:
				overhead += 7
			case induction.ClassShared:
				overhead += 4 // slot load/store plus wait/signal
			}
		}
		est := estimate(lp, spans, accCounts, counted, overhead, &opts)
		if est < opts.MinSpeedup {
			reject("insufficient estimated speedup", est)
			continue
		}
		cov := lp.Coverage(profile.TotalInstrs)
		cands = append(cands, candidate{
			fn: fn, loop: loop, lp: lp, seg: seg, classes: classes,
			est: est, benefit: cov * (1 - 1/est),
		})
	}

	sort.Slice(cands, func(i, j int) bool {
		if cands[i].benefit != cands[j].benefit {
			return cands[i].benefit > cands[j].benefit
		}
		return cands[i].loop.ID < cands[j].loop.ID
	})

	var picked []candidate
	for _, c := range cands {
		if opts.MaxLoops > 0 && len(picked) >= opts.MaxLoops {
			break
		}
		conflict := false
		for _, p := range picked {
			if profile.Conflict(c.loop, p.loop) || staticallyNested(c, p) {
				conflict = true
				break
			}
		}
		if conflict {
			out.Rejected = append(out.Rejected, RejectedLoop{
				Loop: c.loop, Fn: c.fn, Reason: "nested within a selected loop", Estimate: c.est,
			})
			continue
		}
		picked = append(picked, c)
	}

	for i, c := range picked {
		pl, err := generate(prog, c.fn, graphs[c.fn], lives[c.fn], c.loop, opts.Level, c.seg, c.classes, i)
		if err != nil {
			out.Rejected = append(out.Rejected, RejectedLoop{Loop: c.loop, Fn: c.fn, Reason: err.Error(), Estimate: c.est})
			continue
		}
		pl.AvgIterLen = c.lp.AvgIterLen()
		pl.AvgTripCount = c.lp.AvgTripCount()
		pl.Coverage = c.lp.Coverage(profile.TotalInstrs)
		pl.EstSpeedup = c.est
		out.Loops = append(out.Loops, pl)
		out.Coverage += pl.Coverage
	}
	return out, nil
}

// candidate is a loop that passed the legality and profitability checks.
type candidate struct {
	fn      *ir.Function
	loop    *cfg.Loop
	lp      *interp.LoopProfile
	seg     *segmentation
	classes map[ir.Reg]induction.Info
	est     float64
	benefit float64
}

func staticallyNested(a, b candidate) bool {
	if a.fn != b.fn {
		return false
	}
	return a.loop.Contains(b.loop.Header) || b.loop.Contains(a.loop.Header)
}
