package sim

import (
	"context"
	"os"
	"strconv"
	"strings"
	"testing"

	"helixrc/internal/hcc"
	"helixrc/internal/interp"
	"helixrc/internal/ir"
	"helixrc/internal/irgen"
)

// loadCorpusProgram parses a differential-test corpus file: IR text
// plus a "# args:" header.
func loadCorpusProgram(t *testing.T, path string) (*ir.Program, *ir.Function, []int64) {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var args []int64
	for _, line := range strings.Split(string(src), "\n") {
		if rest, ok := strings.CutPrefix(line, "# args:"); ok {
			for _, f := range strings.Fields(rest) {
				v, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				args = append(args, v)
			}
		}
	}
	p, f, err := ir.ParseText(string(src), irgen.Externs)
	if err != nil {
		t.Fatal(err)
	}
	return p, f, args
}

// TestLastValueRecorded runs the corpus program whose selected loop
// restores a last-value register (r3) and a private live-out register
// (r9) after the loop: the recorder must capture both from the last
// iteration that wrote them, Run must match the reference stepper, and
// the result must match sequential execution.
func TestLastValueRecorded(t *testing.T) {
	const path = "../difftest/testdata/regress_lastvalue.hir"
	p, f, args := loadCorpusProgram(t, path)
	want, err := interp.Run(p, f, 0, args...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, level := range []hcc.Level{hcc.V2, hcc.V3} {
		for _, cores := range []int{2, 4, 16} {
			p, f, args := loadCorpusProgram(t, path)
			comp, err := hcc.Compile(p, f, hcc.Options{Level: level, Cores: cores, TrainArgs: args})
			if err != nil {
				t.Fatal(err)
			}
			if len(comp.Loops) != 1 || len(comp.Loops[0].LastValue) != 2 {
				t.Fatalf("%v/%d cores: want one loop restoring r3 and r9, got %d loops", level, cores, len(comp.Loops))
			}
			arch := HelixRC(cores)
			res, tr, err := Record(ctx, p, comp, f, arch, args...)
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.loops) == 0 {
				t.Fatalf("%v/%d cores: no loop invocation recorded", level, cores)
			}
			for i, lt := range tr.loops {
				if len(lt.lastVals) != 2 || lt.lastVals[0].reg != 3 || lt.lastVals[1].reg != 9 {
					t.Errorf("%v/%d cores: loop trace %d last values %v, want r3 and r9", level, cores, i, lt.lastVals)
				}
			}
			slow := arch
			slow.SlowStep = true
			ref, err := Run(ctx, p, comp, f, slow, args...)
			if err != nil {
				t.Fatal(err)
			}
			if *res != *ref {
				t.Errorf("%v/%d cores: Run and the reference stepper diverge:\nrun: %+v\nref: %+v", level, cores, res, ref)
			}
			if res.RetValue != want.RetValue {
				t.Errorf("%v/%d cores: returned %d, sequential %d", level, cores, res.RetValue, want.RetValue)
			}
		}
	}
}
