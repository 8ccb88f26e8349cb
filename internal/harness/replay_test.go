package harness

import (
	"context"
	"strings"
	"testing"
)

// TestReplayMatchesSlowSimFigures pins the simulator's equivalence at
// the harness level: figures generated through the record/replay path
// are byte-identical to figures generated on the reference stepper
// (SetSlowSim), which bypasses traces and their caches per cell.
func TestReplayMatchesSlowSimFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure generation")
	}
	gen := func() string {
		ResetCaches()
		var sb strings.Builder
		f10, err := Figure10(context.Background(), 16)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(f10.Format())
		f11, err := Figure11(context.Background(), "signals")
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(f11.Format())
		return sb.String()
	}

	SetSlowSim(true)
	want := gen()
	SetSlowSim(false)
	defer ResetCaches()
	got := gen()

	if got != want {
		t.Errorf("replayed figures differ from reference-stepper figures:\n--- slowsim ---\n%s\n--- replay ---\n%s", want, got)
	}
	rec, reps := ReplayStats()
	if rec == 0 || reps == 0 {
		t.Errorf("expected both recordings and replays, got %d/%d", rec, reps)
	}
}
