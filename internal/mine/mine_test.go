package mine

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/budget"
	"github.com/shelley-go/shelley/internal/regex"
	"github.com/shelley-go/shelley/internal/store"
)

// staticValve is the running example's protocol: open · read* · close.
func staticValve(t testing.TB) *automata.DFA {
	t.Helper()
	d := automata.NewDFA([]string{"close", "open", "read"})
	mid := d.AddState(false)
	done := d.AddState(true)
	for _, tr := range []struct {
		from int
		sym  string
		to   int
	}{{0, "open", mid}, {mid, "read", mid}, {mid, "close", done}} {
		if err := d.AddTransition(tr.from, tr.sym, tr.to); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestCorpusAcceptsAndVersions(t *testing.T) {
	c := NewCorpus(CorpusConfig{})
	if !c.Add("dev-0", []string{"open", "close"}, true) {
		t.Fatal("add shed")
	}
	v1 := c.Snapshot().Stats.Version
	if !c.Add("dev-1", []string{"open", "close"}, true) {
		t.Fatal("dup add shed")
	}
	if got := c.Snapshot().Stats.Version; got != v1 {
		t.Fatalf("duplicate accepted trace bumped version %d -> %d", v1, got)
	}
	if !c.Add("dev-0", []string{"open", "read"}, false) {
		t.Fatal("partial add shed")
	}
	if got := c.Snapshot().Stats.Version; got != v1 {
		t.Fatalf("partial observation bumped version %d -> %d", v1, got)
	}
	if !c.Snapshot().PTA.Accepts([]string{"open", "close"}) {
		t.Fatal("observed complete usage not accepted")
	}
	if c.Snapshot().PTA.Accepts([]string{"open", "read"}) {
		t.Fatal("partial observation accepted")
	}
	if c.Snapshot().PTA.Accepts([]string{"open"}) {
		t.Fatal("prefix accepted")
	}
	st := c.Snapshot().Stats
	if st.Traces != 1 || st.Devices != 2 || st.Symbols != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCorpusBoundsShedNeverFail(t *testing.T) {
	c := NewCorpus(CorpusConfig{MaxTraces: 2, MaxTraceEvents: 3, MaxSymbols: 4, MaxNodes: 8})
	if c.Add("d", []string{"a", "b", "c", "d"}, true) {
		t.Fatal("over-long trace not shed")
	}
	c.Add("d", []string{"a"}, true)
	c.Add("d", []string{"a", "b"}, true)
	if c.Add("d", []string{"b"}, true) {
		t.Fatal("MaxTraces not enforced")
	}
	if c.Add("d", []string{"e", "f", "g"}, true) && c.Snapshot().Stats.Symbols > 4 {
		t.Fatal("MaxSymbols not enforced")
	}
	if got := c.Snapshot().Stats.Shed; got == 0 {
		t.Fatal("sheds not counted")
	}
	if got := c.Snapshot().Stats.Traces; got != 2 {
		t.Fatalf("traces %d after sheds", got)
	}
}

func TestSnapshotPTAMatchesObservedLanguage(t *testing.T) {
	c := NewCorpus(CorpusConfig{})
	obs := [][]string{
		{"open", "close"},
		{"open", "read", "close"},
		{"open", "read", "read", "close"},
	}
	for _, tr := range obs {
		c.Add("d", tr, true)
	}
	snap := c.Snapshot()
	for _, tr := range obs {
		if !snap.PTA.Accepts(tr) {
			t.Fatalf("PTA rejects observed %v", tr)
		}
	}
	for _, tr := range [][]string{{}, {"open"}, {"close"}, {"open", "read"}} {
		if snap.PTA.Accepts(tr) {
			t.Fatalf("PTA accepts unobserved %v", tr)
		}
	}
	if len(snap.Traces) != len(obs) {
		t.Fatalf("snapshot has %d traces, want %d", len(snap.Traces), len(obs))
	}
	for i := 1; i < len(snap.Traces); i++ {
		if !regex.LessTrace(snap.Traces[i-1], snap.Traces[i]) {
			t.Fatalf("snapshot traces not sorted: %v before %v", snap.Traces[i-1], snap.Traces[i])
		}
	}
}

func mineCtx() context.Context {
	return budget.With(context.Background(), budget.Default())
}

func TestMinerUnderApproximatedThenDrift(t *testing.T) {
	static := staticValve(t)
	resolve := func(string) (*automata.DFA, bool) { return static, true }
	m := NewMiner(Config{})

	for _, tr := range [][]string{{"open", "close"}, {"open", "read", "close"}} {
		if out := m.Ingest(Event{ClassFP: "fp/Valve", Device: "dev-0", Events: tr, Status: "ok"}); !out.Accepted {
			t.Fatalf("ingest shed: %+v", out)
		}
	}
	st := m.MineRound(mineCtx(), resolve)
	if st.Mined != 1 || st.Errors != 0 {
		t.Fatalf("round stats %+v", st)
	}
	reports := m.Reports()
	if len(reports) != 1 {
		t.Fatalf("reports %v", reports)
	}
	r := reports[0]
	if r.Verdict != VerdictUnder {
		t.Fatalf("verdict %q, want %q (report %+v)", r.Verdict, VerdictUnder, r)
	}
	if len(r.Missing) == 0 || !static.Accepts(r.Missing) {
		t.Fatalf("missing witness %v not a static usage", r.Missing)
	}

	// A second round with no new traffic is a no-op.
	if st := m.MineRound(mineCtx(), resolve); st.Mined != 0 || st.Skipped != 1 {
		t.Fatalf("idle round stats %+v", st)
	}

	// One off-model device flips the verdict with a minimal witness.
	drift := []string{"read", "open", "close"}
	if static.Accepts(drift) {
		t.Fatal("test bug: drift trace conforms")
	}
	m.Ingest(Event{ClassFP: "fp/Valve", Device: "rogue", Events: drift, Status: "ok"})
	if st := m.MineRound(mineCtx(), resolve); st.Mined != 1 {
		t.Fatalf("drift round stats %+v", st)
	}
	r = m.Reports()[0]
	if r.Verdict != VerdictDrift {
		t.Fatalf("verdict %q, want DRIFT", r.Verdict)
	}
	if len(r.Counterexample) == 0 || static.Accepts(r.Counterexample) {
		t.Fatalf("counterexample %v accepted by the static model", r.Counterexample)
	}
	if len(r.Counterexample) > len(drift) {
		t.Fatalf("counterexample %v longer than the injected trace", r.Counterexample)
	}
	if got := m.Counters().DriftFlips; got != 1 {
		t.Fatalf("drift flips %d", got)
	}
}

func TestMinerConformantWhenCorpusCoversSpec(t *testing.T) {
	m := NewMiner(Config{})
	// A finite static model (open · close only) can be covered exactly.
	finite := automata.NewDFA([]string{"close", "open"})
	mid := finite.AddState(false)
	done := finite.AddState(true)
	if err := finite.AddTransition(0, "open", mid); err != nil {
		t.Fatal(err)
	}
	if err := finite.AddTransition(mid, "close", done); err != nil {
		t.Fatal(err)
	}
	resolve := func(string) (*automata.DFA, bool) { return finite, true }
	m.Ingest(Event{ClassFP: "fp/Gate", Events: []string{"open", "close"}})
	if st := m.MineRound(mineCtx(), resolve); st.Mined != 1 || st.Errors != 0 {
		t.Fatalf("round stats %+v", st)
	}
	if r := m.Reports()[0]; r.Verdict != VerdictConformant {
		t.Fatalf("verdict %q, want conformant (%+v)", r.Verdict, r)
	}
}

func TestMinerNoStaticModelThenResolved(t *testing.T) {
	static := staticValve(t)
	m := NewMiner(Config{})
	m.Ingest(Event{ClassFP: "fp/Valve", Events: []string{"open", "close"}})

	unresolved := func(string) (*automata.DFA, bool) { return nil, false }
	m.MineRound(mineCtx(), unresolved)
	if r := m.Reports()[0]; r.Verdict != VerdictNoStatic {
		t.Fatalf("verdict %q, want %q", r.Verdict, VerdictNoStatic)
	}

	// The module becomes resident later; the next round re-diffs even
	// though the corpus did not change.
	resolved := func(string) (*automata.DFA, bool) { return static, true }
	m.MineRound(mineCtx(), resolved)
	if r := m.Reports()[0]; r.Verdict != VerdictUnder {
		t.Fatalf("verdict %q after residency, want %q", r.Verdict, VerdictUnder)
	}
}

func TestMinerBudgetTripsAreClassified(t *testing.T) {
	static := staticValve(t)
	resolve := func(string) (*automata.DFA, bool) { return static, true }
	m := NewMiner(Config{})
	m.Ingest(Event{ClassFP: "fp/Valve", Events: []string{"open", "read", "read", "read", "close"}})

	// A starvation budget stops learning instead of pinning the loop.
	tight := budget.With(context.Background(), budget.Limits{MaxDFAStates: 2})
	st := m.MineRound(tight, resolve)
	if st.Errors != 1 {
		t.Fatalf("round stats %+v", st)
	}
	if got := m.Counters().BudgetTripped; got == 0 {
		t.Fatal("budget trip not counted")
	}
	r := m.Reports()[0]
	if r.Verdict != VerdictError || r.Error == "" {
		t.Fatalf("report %+v, want error verdict with cause", r)
	}

	// A failed corpus version is not re-attempted — retrying a
	// deterministic budget trip would burn a full deadline every tick —
	// so the next round skips the class entirely.
	if st := m.MineRound(mineCtx(), resolve); st.Skipped != 1 || st.Errors != 0 {
		t.Fatalf("post-failure round stats %+v, want the class skipped", st)
	}

	// Fresh traffic bumps the corpus version and re-arms mining; the
	// class then recovers under a sane budget.
	m.Ingest(Event{ClassFP: "fp/Valve", Events: []string{"open", "close"}})
	if st := m.MineRound(mineCtx(), resolve); st.Mined != 1 || st.Errors != 0 {
		t.Fatalf("recovery round stats %+v", st)
	}
	if r := m.Reports()[0]; r.Verdict != VerdictUnder || r.Error != "" {
		t.Fatalf("recovered report %+v", r)
	}
}

func TestMinerPersistenceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() *store.Store {
		s, err := store.Open(store.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	static := staticValve(t)
	resolve := func(string) (*automata.DFA, bool) { return static, true }

	s1 := open()
	m1 := NewMiner(Config{Store: s1})
	m1.Ingest(Event{ClassFP: "fp/Valve", Events: []string{"read", "open", "close"}})
	m1.MineRound(mineCtx(), resolve)
	want := m1.Reports()[0]
	if want.Verdict != VerdictDrift {
		t.Fatalf("seed verdict %q", want.Verdict)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2 := open()
	defer s2.Close()
	m2 := NewMiner(Config{Store: s2})
	reports := m2.Reports()
	if len(reports) != 1 {
		t.Fatalf("restored %d reports", len(reports))
	}
	got := reports[0]
	if !got.Warm {
		t.Fatal("restored report not marked warm")
	}
	if got.Verdict != want.Verdict || strings.Join(got.Counterexample, ",") != strings.Join(want.Counterexample, ",") {
		t.Fatalf("restored report %+v != persisted %+v", got, want)
	}

	// Fresh conforming traffic re-mines and clears the warm flag; the
	// restored class still reports the drifting language until then.
	m2.Ingest(Event{ClassFP: "fp/Valve", Events: []string{"open", "close"}})
	m2.MineRound(mineCtx(), resolve)
	got = m2.Reports()[0]
	if got.Warm {
		t.Fatal("warm flag survived a fresh mining round")
	}
}

func TestDecodeFrame(t *testing.T) {
	input := strings.Join([]string{
		`{"class_fp":"fp/Valve","device":"d0","events":["open","close"],"status":"ok"}`,
		``,
		`{"class_fp":"fp/Valve","events":["open"],"status":"partial"}`,
		`not json at all`,
		`{"class_fp":"","events":["x"]}`,
		`{"class_fp":"fp/Valve","events":["open"],"status":"weird"}`,
		`{"class_fp":"fp/Other","events":[]}`,
	}, "\n")
	var got []Event
	st, err := DecodeFrame(strings.NewReader(input), DecodeLimits{}, func(ev Event) { got = append(got, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if st.Lines != 6 || st.Malformed != 3 || st.Oversize != 0 {
		t.Fatalf("stats %+v", st)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d events: %+v", len(got), got)
	}
	if acc, _ := got[1].Accepted(); acc {
		t.Fatal("partial status decoded as accepted")
	}
}

func TestDecodeFrameOversizeLineSkipped(t *testing.T) {
	big := `{"class_fp":"fp/V","events":["` + strings.Repeat("x", 200<<10) + `"]}`
	input := big + "\n" + `{"class_fp":"fp/V","events":["open"]}` + "\n"
	var got []Event
	st, err := DecodeFrame(strings.NewReader(input), DecodeLimits{}, func(ev Event) { got = append(got, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if st.Oversize != 1 {
		t.Fatalf("stats %+v", st)
	}
	if len(got) != 1 || got[0].Events[0] != "open" {
		t.Fatalf("line after the oversize one lost: %+v", got)
	}
}
