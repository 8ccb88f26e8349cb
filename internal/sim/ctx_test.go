package sim

import (
	"context"
	"errors"
	"testing"
)

// TestRunCancelledContext: a simulation started with an already-cancelled
// context returns the context error on the first step — the deadline
// check rides the existing step-budget accounting, so no instruction
// executes past a dead context.
func TestRunCancelledContext(t *testing.T) {
	p, f := buildMixed(t, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, p, nil, f, Conventional(1), 1000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestReplayCancelledContext: trace replay honours the same contract as
// a full run.
func TestReplayCancelledContext(t *testing.T) {
	p, f := buildMixed(t, 200)
	_, tr, err := Record(context.Background(), p, nil, f, Conventional(1), 200)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Replay(ctx, tr, Conventional(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Replay err = %v, want context.Canceled", err)
	}
}

// TestRunNilContext: a nil context means "no deadline" — same behaviour
// as before contexts were threaded through.
func TestRunNilContext(t *testing.T) {
	p, f := buildMixed(t, 50)
	res, err := Run(nil, p, nil, f, Conventional(1), 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles simulated")
	}
}
