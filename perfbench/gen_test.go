package main

import (
	"context"
	"testing"

	shelley "github.com/shelley-go/shelley"
)

func testCorpus(t *testing.T) corpus {
	t.Helper()
	c, err := loadCorpus("../testdata")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestGeneratorDeterministic checks that one seed gives byte-identical
// sources for every workload.
func TestGeneratorDeterministic(t *testing.T) {
	paper := testCorpus(t)
	for _, w := range workloadNames {
		a, b := newInputs(w, 7, paper), newInputs(w, 7, paper)
		if len(a.sources()) == 0 {
			t.Fatalf("%s: no sources", w)
		}
		for i, s := range a.sources() {
			if s != b.sources()[i] {
				t.Fatalf("%s: source %d differs between two runs of seed 7", w, i)
			}
		}
		if c := newInputs(w, 8, paper); c.sources()[0] == a.sources()[0] {
			t.Fatalf("%s: seeds 7 and 8 give the same first source", w)
		}
	}
}

// TestColdCheckMix checks the cold-check stream: every module loads
// and checks without an analysis error under the daemon's budget, the
// shared-class ratio is about one half, and both verdicts occur.
func TestColdCheckMix(t *testing.T) {
	paper := testCorpus(t)
	in := newInputs("cold-check", 1, paper)
	if r := sharedRatio(in.bodies); r < 0.4 || r > 0.6 {
		t.Fatalf("shared_class_ratio = %.3f, want about 0.5", r)
	}
	ctx := shelley.WithBudget(context.Background(), shelley.DefaultBudget())
	var pass, fail, paperMods int
	for i, m := range in.bodies[:400] {
		mod, err := shelley.LoadSource(m.source)
		if err != nil {
			t.Fatalf("module %d does not load: %v\n%s", i, err, m.source)
		}
		reports, err := mod.CheckAllContext(ctx, 1)
		if err != nil {
			t.Fatalf("module %d does not check: %v\n%s", i, err, m.source)
		}
		ok := true
		for _, r := range reports {
			ok = ok && r.OK()
		}
		if ok {
			pass++
		} else {
			fail++
		}
		if m.classes[0] == "Valve" {
			paperMods++
		}
		if n := len(m.classes); n < minClasses || n > maxClasses {
			t.Fatalf("module %d has %d classes", i, n)
		}
	}
	t.Logf("400 modules: %d pass, %d fail, %d embed the paper corpus, shared ratio %.3f", pass, fail, paperMods, sharedRatio(in.bodies))
	if pass < 40 || fail < 40 {
		t.Fatalf("verdict mix %d pass / %d fail, want both well represented", pass, fail)
	}
	if paperMods == 0 {
		t.Fatal("no module embeds the paper corpus")
	}
}

// TestEditSchedule replays edit-loop rounds through a library session
// and checks the re-check counts against the schedule: a body edit
// re-verifies 1 class and reuses 12, a protocol edit re-verifies all 13.
func TestEditSchedule(t *testing.T) {
	em := newEditModule(3, 0)
	sess := shelley.NewSession()
	ctx := context.Background()
	res, err := sess.Recheck(ctx, "edit", []byte(em.source()))
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckedClasses != editComposites+1 {
		t.Fatalf("initial round checked %d classes", res.CheckedClasses)
	}
	for r := 1; r <= 3*protocolEvery; r++ {
		src, protocol := em.next()
		res, err := sess.Recheck(ctx, "edit", []byte(src))
		if err != nil {
			t.Fatalf("round %d: %v\n%s", r, err, src)
		}
		wantChecked, wantReused := 1, editComposites
		if protocol {
			wantChecked, wantReused = editComposites+1, 0
		}
		if res.CheckedClasses != wantChecked || res.ReusedReports != wantReused {
			t.Fatalf("round %d (protocol %v): checked %d reused %d, want %d/%d\n%s",
				r, protocol, res.CheckedClasses, res.ReusedReports, wantChecked, wantReused, src)
		}
	}
}

// sources lists the inputs' sources in a fixed order (the
// determinism self-test compares them byte for byte).
func (in *inputs) sources() []string {
	var out []string
	for _, m := range in.bodies {
		out = append(out, m.source)
	}
	if in.workload == "edit-loop" {
		for w := 0; w < workers; w++ {
			em := in.editModule(w, 0)
			out = append(out, em.source())
			for r := 0; r < 2*protocolEvery; r++ {
				src, _ := em.next()
				out = append(out, src)
			}
		}
	}
	return out
}
