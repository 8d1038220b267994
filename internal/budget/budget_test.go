package budget

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestFromDefaultsToUnlimited(t *testing.T) {
	if l := From(context.Background()); !l.Unlimited() {
		t.Fatalf("background context carries limits %+v", l)
	}
	want := Limits{MaxDFAStates: 7}
	if got := From(With(context.Background(), want)); got != want {
		t.Fatalf("From(With(...)) = %+v, want %+v", got, want)
	}
}

func TestKeyDistinguishesBudgets(t *testing.T) {
	if k := (Limits{}).Key(); k != "" {
		t.Fatalf("unlimited key = %q, want empty", k)
	}
	a := Limits{MaxDFAStates: 10}.Key()
	b := Limits{MaxDFAStates: 20}.Key()
	if a == b || a == "" || b == "" {
		t.Fatalf("keys do not distinguish budgets: %q vs %q", a, b)
	}
	if Default().Key() != Default().Key() {
		t.Fatal("key is not deterministic")
	}
}

func TestGateTripsStructuredError(t *testing.T) {
	ctx := With(context.Background(), Limits{MaxDFAStates: 3})
	g := DFAGate(ctx, "determinize")
	for i := 0; i < 3; i++ {
		if err := g.Tick(); err != nil {
			t.Fatalf("tick %d under limit: %v", i, err)
		}
	}
	err := g.Tick()
	if err == nil {
		t.Fatal("gate did not trip past the limit")
	}
	if !errors.Is(err, ErrExceeded) {
		t.Fatalf("tripped error %v does not match ErrExceeded", err)
	}
	var be *Err
	if !errors.As(err, &be) || be.Resource != "dfa-states" || be.Op != "determinize" || be.Limit != 3 {
		t.Fatalf("structured error fields wrong: %+v", be)
	}
}

func TestGateObservesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := SearchGate(ctx, "claim-search")
	err := g.Tick() // first tick polls
	if err == nil {
		t.Fatal("gate ignored a canceled context")
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel error %v matches neither ErrCanceled nor context.Canceled", err)
	}
}

func TestGateObservesDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	g := NewGate(ctx, "minimize", "", 0)
	if err := g.Tick(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline not observed: %v", err)
	}
}

func TestZeroLimitCountsNothing(t *testing.T) {
	g := NewGate(context.Background(), "minimize", "", 0)
	for i := 0; i < 10_000; i++ {
		if err := g.Tick(); err != nil {
			t.Fatalf("unlimited gate tripped at %d: %v", i, err)
		}
	}
	if g.N() != 10_000 {
		t.Fatalf("N = %d, want 10000", g.N())
	}
}

// Key returns the limits' AppendKey encoding as a string.
func (l Limits) Key() string {
	var buf [64]byte
	return string(l.AppendKey(buf[:0]))
}
