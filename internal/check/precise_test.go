package check

import (
	"reflect"
	"strings"
	"testing"
)

// TestPreciseRemovesOverApproximation is the counterpart of
// TestOverApproximationDocumented: with exit-aware flattening, the
// trace that pairs open_a's clean branch with open_b's continuation is
// no longer in the flattened language, while the real traces remain.
func TestPreciseRemovesOverApproximation(t *testing.T) {
	reg, _, bad := paperRegistry(t)
	flat, err := FlattenedDFA(bad, reg, Precise())
	if err != nil {
		t.Fatal(err)
	}
	real := []string{"a.test", "a.open", "b.test", "b.open", "a.close", "b.close"}
	if !flat.Accepts(real) {
		t.Error("precise language must keep the real trace")
	}
	realClean := []string{"a.test", "a.clean"}
	if !flat.Accepts(realClean) {
		t.Error("precise language must keep the clean-branch trace")
	}
	approx := []string{"a.test", "a.clean", "b.test", "b.open", "a.close", "b.close"}
	if flat.Accepts(approx) {
		t.Error("precise flattening must drop the clean-branch-then-open_b trace")
	}
	// Precise ⊆ union.
	union, err := FlattenedDFA(bad, reg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range [][]string{real, realClean, {"a.test"}, {"a.test", "a.open"}} {
		if flat.Accepts(tr) && !union.Accepts(tr) {
			t.Errorf("precise accepts %v but union does not — subset property violated", tr)
		}
	}
}

// TestPreciseStillFindsRealErrors: BadSector's genuine violations
// survive the precision upgrade with the same messages.
func TestPreciseStillFindsRealErrors(t *testing.T) {
	reg, _, bad := paperRegistry(t)
	report, err := Check(bad, reg, Precise())
	if err != nil {
		t.Fatal(err)
	}
	var kinds []Kind
	for _, d := range report.Diagnostics {
		kinds = append(kinds, d.Kind)
	}
	if !reflect.DeepEqual(kinds, []Kind{KindInvalidSubsystemUsage, KindClaimFailure}) {
		t.Fatalf("kinds = %v:\n%s", kinds, report)
	}
	if !strings.Contains(report.Diagnostics[0].Message, "Counter example: open_a, a.test, a.open") {
		t.Errorf("usage message:\n%s", report.Diagnostics[0].Message)
	}
}

// TestPreciseAcceptsWhatUnionFalselyFlags constructs a composite that
// the union-level analysis flags spuriously and the exit-aware analysis
// verifies: the continuation differs per exit, and only the
// union-pairing is invalid.
func TestPreciseAcceptsWhatUnionFalselyFlags(t *testing.T) {
	// Device: probe has two exits — ["engage"] after d.arm, ["reset"]
	// after nothing. Using the union, behavior(probe) x continuation
	// pairs d.arm-less paths with engage (which needs the arm), a
	// spurious violation.
	src := `@sys
class Dev:
    @op_initial
    def arm(self):
        return ["fire", "disarm"]

    @op
    def fire(self):
        return ["disarm"]

    @op_final
    def disarm(self):
        return ["arm"]


@sys(["d"])
class Ctl:
    def __init__(self):
        self.d = Dev()

    @op_initial
    def probe(self):
        if self.hot():
            self.d.arm()
            return ["engage"]
        else:
            return ["reset"]

    @op_final
    def engage(self):
        self.d.fire()
        self.d.disarm()
        return []

    @op_final
    def reset(self):
        return []
`
	dev := classFrom(t, src, "Dev")
	ctl := classFrom(t, src, "Ctl")
	reg := NewRegistry(dev, ctl)

	// Union mode: spurious violation — probe's armless exit paired with
	// engage gives d.fire without d.arm; or the armed exit paired with
	// reset leaves the device armed.
	unionReport, err := Check(ctl, reg)
	if err != nil {
		t.Fatal(err)
	}
	foundUsage := false
	for _, d := range unionReport.Diagnostics {
		if d.Kind == KindInvalidSubsystemUsage {
			foundUsage = true
		}
	}
	if !foundUsage {
		t.Fatalf("expected the union analysis to over-report:\n%s", unionReport)
	}

	// Precise mode: every real pairing is fine, so Ctl verifies.
	preciseReport, err := Check(ctl, reg, Precise())
	if err != nil {
		t.Fatal(err)
	}
	if !preciseReport.OK() {
		t.Errorf("precise analysis should verify Ctl:\n%s", preciseReport)
	}
}

// TestPreciseHandlesFallThroughBodies: an operation that can complete
// without returning gets an implicit exit with no continuation.
func TestPreciseHandlesFallThroughBodies(t *testing.T) {
	src := `class Plain:
    def step(self):
        if self.go():
            return ["step"]
`
	// Unannotated class: step is initial+final; its body may fall off
	// the end (no else), which the precise flattener models as an
	// implicit continuation-free exit. Structure validation flags the
	// fall-through, but flattening must still be well-defined.
	c := classFrom(t, src, "Plain")
	d, err := FlattenedDFA(c, NewRegistry(c))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepts([]string{"step"}) || !d.Accepts([]string{"step", "step"}) {
		t.Error("spec DFA should accept repeated steps")
	}
}

// TestPreciseSkipsUnreachableReturn: a return right after a return can
// never run, so exit-aware flattening gives it no exit — no copy of its
// empty behavior, which would be a node without edges, and no wiring of
// its continuations.
func TestPreciseSkipsUnreachableReturn(t *testing.T) {
	const src = `@sys
class Dev:
    @op_initial_final
    def a(self):
        return ["a"]

@sys(["d"])
class Ctl:
    def __init__(self):
        self.d = Dev()

    @op_initial_final
    def go(self):
        self.d.a()
        return ["go"]
        return ["stop"]

    @op_final
    def stop(self):
        self.d.a()
        return ["stop"]
`
	classes, reg, err := composites(src)
	if err != nil || len(classes) != 1 {
		t.Fatalf("composites: %d, %v", len(classes), err)
	}
	c := classes[0]
	if !hasUnreachableReturn(c) {
		t.Fatal("go's second return should be unreachable")
	}
	alphabet, err := subsystemAlphabet(c, reg)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := flattenExitAware(buildConfig(nil), c, alphabet)
	if err != nil {
		t.Fatal(err)
	}
	for i, edges := range flat.edges {
		if len(edges) == 0 && !flat.accept[i] {
			t.Errorf("node %d has no edges and does not accept: a copy of an unreachable exit's behavior", i)
		}
	}
}
