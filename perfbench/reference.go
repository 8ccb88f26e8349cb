package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"helixrc/internal/benchreport"
	"helixrc/internal/harness"
	"helixrc/internal/hcc"
	"helixrc/internal/sim"
	"helixrc/internal/workloads"
)

// referenceJSON holds every expected output the benchmark checks. The
// figure hashes are copied from BENCH_2026-08-07.json; the sweep and
// serve references were produced by -regen with the retained reference
// stepper (harness.SetSlowSim(true)), which bypasses the record/replay
// path that the workloads exercise.
//
//go:embed reference.json
var referenceJSON []byte

// reference is the decoded reference file.
type reference struct {
	// Figures maps each experiment to its output's sha256.
	Figures map[string]string `json:"figures"`
	// Sweep maps each scenario family to the sha256 of its rendered
	// cells (see sweepDigest).
	Sweep map[string]string `json:"sweep"`
	// Compile maps compileKey to the compile job's result.
	Compile map[string]compileRef `json:"compile"`
	// Baseline maps baselineKey to the sequential run.
	Baseline map[string]baselineRef `json:"baseline"`
	// Parallel maps traceIdentity.key() to the parallel cycles under
	// each entry of timingSpace, in order.
	Parallel map[string][]int64 `json:"parallel"`
}

type compileRef struct {
	Coverage float64 `json:"coverage"`
	Loops    int     `json:"loops"`
}

type baselineRef struct {
	Cycles   int64 `json:"cycles"`
	RetValue int64 `json:"ret_value"`
}

func loadReference() (*reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &r, nil
}

func compileKey(prog string, level, cores int) string {
	return fmt.Sprintf("%s/L%d/c%d", prog, level, cores)
}

func baselineKey(prog string, ref bool) string {
	return fmt.Sprintf("%s/%s", prog, inputName(ref))
}

func inputName(ref bool) string {
	if ref {
		return "ref"
	}
	return "train"
}

// regenMain recomputes reference.json. Every simulated value comes from
// the reference stepper with record/replay bypassed; the figure hashes
// come from the checked-in BENCH_2026-08-07.json report.
func regenMain(path string) int {
	if err := regen(path); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench -regen: %v\n", err)
		return 1
	}
	return 0
}

func regen(path string) error {
	ctx := context.Background()
	harness.SetQuiet()
	harness.SetSlowSim(true)
	r := reference{
		Sweep:    map[string]string{},
		Compile:  map[string]compileRef{},
		Baseline: map[string]baselineRef{},
		Parallel: map[string][]int64{},
	}
	var err error
	if r.Figures, err = benchHashes("BENCH_2026-08-07.json"); err != nil {
		return err
	}

	fams, err := loadSweepFamilies()
	if err != nil {
		return err
	}
	for _, f := range fams {
		cells, err := harness.ParMap(ctx, len(sweepGrid)*len(f.scenarios), func(ctx context.Context, i int) (float64, error) {
			return harness.SweepCell(ctx, f.scenarios[i%len(f.scenarios)], sweepLevel, sweepGrid[i/len(f.scenarios)])
		})
		if err != nil {
			return fmt.Errorf("sweep %s: %w", f.name, err)
		}
		r.Sweep[f.name] = sweepDigest(f.scenarios, cells)
		fmt.Fprintf(os.Stderr, "sweep %s: %s\n", f.name, r.Sweep[f.name])
	}

	for _, p := range workloads.Names() {
		for _, level := range compileLevels {
			for _, cores := range compileCores {
				_, comp, err := harness.Compile(p, hcc.Level(level), cores)
				if err != nil {
					return err
				}
				r.Compile[compileKey(p, level, cores)] = compileRef{comp.Coverage, len(comp.Loops)}
			}
		}
		for _, ref := range []bool{false, true} {
			// The server keys baselines without the core count; check
			// that every core count a job may ask for agrees.
			var seqs []*sim.Result
			for _, cores := range identityCores {
				seq, err := harness.Baseline(ctx, p, sim.Conventional(cores), ref)
				if err != nil {
					return err
				}
				if len(seqs) > 0 && (seq.Cycles != seqs[0].Cycles || seq.RetValue != seqs[0].RetValue) {
					return fmt.Errorf("%s baseline differs between core counts", baselineKey(p, ref))
				}
				seqs = append(seqs, seq)
			}
			r.Baseline[baselineKey(p, ref)] = baselineRef{seqs[0].Cycles, seqs[0].RetValue}
		}
	}

	ids := serveIdentities()
	for n, id := range ids {
		par, err := harness.ParMap(ctx, len(timingSpace), func(ctx context.Context, i int) (int64, error) {
			res, _, err := harness.CachedRun(ctx, id.prog, hcc.Level(id.level), id.arch(timingSpace[i]), id.ref)
			if err != nil {
				return 0, err
			}
			if want := r.Baseline[baselineKey(id.prog, id.ref)].RetValue; res.RetValue != want {
				return 0, fmt.Errorf("%s: parallel result %d != sequential %d", id.key(), res.RetValue, want)
			}
			return res.Cycles, nil
		})
		if err != nil {
			return err
		}
		r.Parallel[id.key()] = par
		fmt.Fprintf(os.Stderr, "parallel %d/%d %s\n", n+1, len(ids), id.key())
	}

	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchHashes reads the figure hashes of a helix-bench JSON report and
// checks that it has one for every experiment.
func benchHashes(path string) (map[string]string, error) {
	out, err := benchreport.ExpectedHashes(path)
	if err != nil {
		return nil, err
	}
	for _, name := range harness.ExperimentNames() {
		if out[name] == "" {
			return nil, fmt.Errorf("%s: no hash for %s", path, name)
		}
	}
	return out, nil
}
