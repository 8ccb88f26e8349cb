package hcc_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"helixrc/internal/difftest"
	"helixrc/internal/hcc"
	"helixrc/internal/interp"
	"helixrc/internal/ir"
	"helixrc/internal/irgen"
	"helixrc/internal/scenarios"
	"helixrc/internal/workloads"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/compile_digests.txt from the current compiler")

const digestFile = "testdata/compile_digests.txt"

// digestCase is one pinned compilation.
type digestCase struct {
	name  string
	build func() (*workloads.Workload, error)
	opts  hcc.Options
}

// digestCases enumerates every SPEC analogue at each compiler level on
// 2 and 16 cores, and every checked-in scenario-pack program at alias
// tiers 1, 3 and 5 (HCCv3, 8 cores), and every differential-test corpus
// program at HCCv1 and HCCv3 (16 cores).
func digestCases(t *testing.T) []digestCase {
	var cases []digestCase
	for _, name := range workloads.Names() {
		for _, level := range []hcc.Level{hcc.V1, hcc.V2, hcc.V3} {
			for _, cores := range []int{2, 16} {
				name := name
				cases = append(cases, digestCase{
					name:  fmt.Sprintf("%s/%s/c%d", name, level, cores),
					build: func() (*workloads.Workload, error) { return workloads.Get(name) },
					opts:  hcc.Options{Level: level, Cores: cores},
				})
			}
		}
	}
	packs, err := scenarios.LoadDir(filepath.Join("..", "..", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range packs {
		for _, m := range p.Scenarios {
			f, err := irgen.ParseFamily(m.Family)
			if err != nil {
				t.Fatal(err)
			}
			for _, tier := range []int{1, 3, 5} {
				m := m
				cases = append(cases, digestCase{
					name: fmt.Sprintf("%s/t%d", m.Name, tier),
					build: func() (*workloads.Workload, error) {
						_, w, err := scenarios.Build(f, m.Seed, m.Knobs)
						return w, err
					},
					opts: hcc.Options{Level: hcc.V3, Cores: 8, AliasTier: tier},
				})
			}
		}
	}
	corpus, err := filepath.Glob(filepath.Join("..", "difftest", "testdata", "*.hir"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range corpus {
		for _, level := range []hcc.Level{hcc.V1, hcc.V3} {
			path := path
			cases = append(cases, digestCase{
				name: fmt.Sprintf("corpus/%s/%s", filepath.Base(path), level),
				build: func() (*workloads.Workload, error) {
					text, args, err := difftest.LoadCorpusFile(path)
					if err != nil {
						return nil, err
					}
					p, f, err := ir.ParseText(text, irgen.Externs)
					return &workloads.Workload{Prog: p, Entry: f, TrainArgs: args}, err
				},
				opts: hcc.Options{Level: level, Cores: 16},
			})
		}
	}
	return cases
}

// TestCompileDigests pins a digest of everything HCC produces for each
// case: the selected loops with their segments, slots, recomputation,
// reduction and last-value rules, the rejected loops with their reasons,
// and the textual IR of the compiled program (generated bodies
// included). Analysis refactors must leave every digest unchanged; a
// deliberate change to compiler output regenerates the file with
// `go test ./internal/hcc -run TestCompileDigests -update`.
func TestCompileDigests(t *testing.T) {
	got := map[string]string{}
	var names []string
	for _, c := range digestCases(t) {
		w, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		opts := c.opts
		opts.TrainArgs = w.TrainArgs
		comp, err := hcc.Compile(w.Prog, w.Entry, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = compileDigest(comp, w.Entry)
		names = append(names, c.name)
	}
	if *updateDigests {
		var sb strings.Builder
		for _, n := range names {
			fmt.Fprintf(&sb, "%s %s\n", n, got[n])
		}
		if err := os.WriteFile(digestFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readDigests(t)
	for _, n := range names {
		switch w, ok := want[n]; {
		case !ok:
			t.Errorf("%s: no pinned digest (regenerate with -update)", n)
		case w != got[n]:
			t.Errorf("%s: compile digest %s, pinned %s", n, got[n], w)
		}
	}
	if len(want) != len(names) {
		t.Errorf("%d pinned digests, %d cases", len(want), len(names))
	}
}

func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed digest line %q", sc.Text())
		}
		out[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// compileDigest hashes a canonical rendering of a compilation.
func compileDigest(comp *hcc.Compiled, entry *ir.Function) string {
	var sb strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&sb, format, args...) }
	f64 := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

	comp.Prog.WriteText(&sb, entry)
	// Compiler-assigned instruction state the text form leaves out.
	for _, f := range comp.Prog.Funcs {
		w("uids %s\n", f.Name)
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				w(" %d/%d/%d", in.UID, in.Origin, in.SharedSeg)
			}
		}
		w("\n")
	}
	w("coverage %s\n", f64(comp.Coverage))
	for _, pl := range comp.Loops {
		w("loop %d fn=%s header=%s body=%s iter=r%d counted=%v ctl=%d segs=%d\n",
			pl.ID, pl.Fn.Name, pl.Header.Name, pl.Body.Name, pl.IterParam, pl.Counted, pl.CtlAddr, pl.NumSegs)
		for _, s := range pl.Segments {
			w(" segment %d members=%d span=%d\n", s.ID, s.MemberInstrs, s.SpanInstrs)
		}
		for _, r := range sortedRegs(pl.SlotOf) {
			w(" slot r%d=%d\n", r, pl.SlotOf[r])
		}
		var addrs []int64
		for a := range pl.SlotAddrs {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		w(" slotaddrs %v\n", addrs)
		for _, r := range sortedRegs(pl.Recompute) {
			w(" recompute r%d=%+v\n", r, pl.Recompute[r])
		}
		for _, r := range sortedRegs(pl.Reductions) {
			w(" reduce r%d=%d\n", r, pl.Reductions[r])
		}
		for _, r := range sortedRegs(pl.LastValue) {
			w(" lastvalue r%d=%v\n", r, pl.LastValue[r])
		}
		for k, b := range pl.ExitTargets {
			w(" exit %d=%s\n", k, b.Name)
		}
		w(" liveout %v\n", pl.LiveOutRegs)
		w(" stats %s %s %s %s\n", f64(pl.AvgIterLen), f64(pl.AvgTripCount), f64(pl.Coverage), f64(pl.EstSpeedup))
	}
	for _, r := range comp.Rejected {
		w("rejected fn=%s header=%s est=%s %s\n", r.Fn.Name, r.Loop.Header.Name, f64(r.Estimate), r.Reason)
	}
	// The training profile the selection was made from.
	prof := comp.Profile
	w("profile instrs=%d ret=%d\n", prof.TotalInstrs, prof.RetValue)
	for _, f := range comp.Prog.Funcs {
		w("blocks %s", f.Name)
		for _, b := range f.Blocks {
			w(" %d", prof.BlockCount[b])
		}
		w("\n")
	}
	loops := prof.LoopsBy()
	for _, a := range loops {
		for _, b := range loops {
			if prof.Conflict(a.Loop, b.Loop) {
				w("conflict %s@%s %s@%s\n", a.Fn.Name, a.Loop.Header.Name, b.Fn.Name, b.Loop.Header.Name)
			}
		}
	}
	for _, lp := range loops {
		w("lp fn=%s header=%s inv=%d iters=%d instrs=%d lens=%v trips=%v hops=%v\n",
			lp.Fn.Name, lp.Loop.Header.Name, lp.Invocations, lp.Iterations, lp.InstrTotal,
			lp.IterLens, lp.TripCounts, lp.HopDist)
		deps := make([]interp.DepPair, 0, len(lp.Deps))
		for d := range lp.Deps {
			deps = append(deps, d)
		}
		sort.Slice(deps, func(i, j int) bool {
			if deps[i].From != deps[j].From {
				return deps[i].From < deps[j].From
			}
			return deps[i].To < deps[j].To
		})
		for _, d := range deps {
			w(" dep %d-%d=%d", d.From, d.To, lp.Deps[d])
		}
		shared := make([]int64, 0, len(lp.SharedAddrs))
		for a := range lp.SharedAddrs {
			shared = append(shared, a)
		}
		sort.Slice(shared, func(i, j int) bool { return shared[i] < shared[j] })
		w("\n shared %v\n", shared)
		counts := make([]int, 0, len(lp.ConsumerCounts))
		for k := range lp.ConsumerCounts {
			counts = append(counts, k)
		}
		sort.Ints(counts)
		for _, k := range counts {
			w(" consumers %d=%d", k, lp.ConsumerCounts[k])
		}
		w("\n")
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

func sortedRegs[V any](m map[ir.Reg]V) []ir.Reg {
	regs := make([]ir.Reg, 0, len(m))
	for r := range m {
		regs = append(regs, r)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })
	return regs
}
