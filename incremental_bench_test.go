package shelley

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// editLoopSource builds the benchmark workload: a 13-class module
// (12 composites over one base class) whose Ctl5.m1 body is derived
// bit-by-bit from round (32 call statements, each targeting op0 or
// op1), so every round is a genuine, never-seen-before one-method
// edit — the session's source-hash short-circuit never fires, the
// content-addressed report cache cannot answer the edited class from
// a previous round, and exactly one class's fingerprint moves per
// round. The statement count is fixed, so the edit is
// layout-preserving: no other class's positions (and hence
// fingerprints) move.
func editLoopSource(round int64) string {
	var b strings.Builder
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&b, "@sys([\"d\"])\nclass Ctl%d:\n    def __init__(self):\n        self.d = Dev()\n\n", i)
		fmt.Fprintf(&b, "    @op_initial\n    def m0(self):\n        self.d.op%d()\n        return [\"m1\"]\n\n", i%2)
		b.WriteString("    @op_final\n    def m1(self):\n")
		// Every composite carries the same 32-statement weight, so the
		// edited class is not an outlier; only Ctl5's bits come from
		// round, the others are fixed per-class patterns.
		bits := round
		if i != 5 {
			bits = int64(i * 2654435761)
		}
		for s := 0; s < 32; s++ {
			fmt.Fprintf(&b, "        self.d.op%d()\n", (bits>>uint(s))&1)
		}
		b.WriteString("        return []\n\n")
	}
	b.WriteString("@sys\nclass Dev:\n")
	b.WriteString("    @op_initial_final\n    def op0(self):\n        return [\"op0\", \"op1\"]\n\n")
	b.WriteString("    @op_initial_final\n    def op1(self):\n        return [\"op0\", \"op1\"]\n\n")
	return b.String()
}

// BenchmarkEditLoopFullCheck is the non-incremental cost of one edit:
// the source fingerprint moved, so a daemon (or CLI run) without a
// session re-loads the module and re-verifies every class cold. This
// is what each round of an edit loop cost before incremental
// re-verification.
func BenchmarkEditLoopFullCheck(bb *testing.B) {
	bb.ReportAllocs()
	bb.ResetTimer()
	for i := 0; i < bb.N; i++ {
		mod, err := LoadSource(editLoopSource(int64(i)))
		if err != nil {
			bb.Fatal(err)
		}
		if _, err := mod.CheckAll(); err != nil {
			bb.Fatal(err)
		}
	}
}

// BenchmarkEditLoopParseFloor measures a whole-module frontend round:
// tokenizing, parsing and modeling the full incoming source, as every
// plain load (LoadSource, Cache.Load, the daemon's /v1/check) does. A
// Session no longer pays it per edit: it parses only the class blocks
// the edit changed and reuses the rest from its resident generation,
// so BenchmarkEditLoopIncremental can cost less than parse floor plus
// one class's re-verification.
func BenchmarkEditLoopParseFloor(bb *testing.B) {
	bb.ReportAllocs()
	bb.ResetTimer()
	for i := 0; i < bb.N; i++ {
		if _, err := LoadSource(editLoopSource(int64(i))); err != nil {
			bb.Fatal(err)
		}
	}
}

// BenchmarkEditLoopIncremental is the same one-method-per-round edit
// pushed through a resident Session: parse + diff + one class's
// re-verification, with the other twelve classes' reports answered
// from the session cache.
func BenchmarkEditLoopIncremental(bb *testing.B) {
	ctx := context.Background()
	sess := NewSession()
	// Prime the session so every timed round is a warm incremental
	// recheck, not an initial load.
	if _, err := sess.Recheck(ctx, "bench", []byte(editLoopSource(-1))); err != nil {
		bb.Fatal(err)
	}
	bb.ReportAllocs()
	bb.ResetTimer()
	var checked, reused int
	for i := 0; i < bb.N; i++ {
		res, err := sess.Recheck(ctx, "bench", []byte(editLoopSource(int64(i))))
		if err != nil {
			bb.Fatal(err)
		}
		checked += res.CheckedClasses
		reused += res.ReusedReports
	}
	bb.StopTimer()
	if bb.N > 0 {
		bb.ReportMetric(float64(checked)/float64(bb.N), "checked/round")
		bb.ReportMetric(float64(reused)/float64(bb.N), "reused/round")
	}
}
