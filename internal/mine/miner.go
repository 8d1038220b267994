package mine

import (
	"context"
	"encoding/json"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/budget"
	"github.com/shelley-go/shelley/internal/learn"
	"github.com/shelley-go/shelley/internal/store"
)

// Config tunes a Miner. Zero values take defaults.
type Config struct {
	// MaxClasses caps tracked classes; ingest for further classes sheds.
	MaxClasses int

	// Corpus bounds each class's trace corpus.
	Corpus CorpusConfig

	// ExtraStates is the W-method sampling depth of the equivalence
	// oracle (suite size is exponential in it).
	ExtraStates int

	// Learn tunes the L* runs. A zero MaxQueries defaults to 1<<20 so a
	// pathological corpus trips a classified budget error instead of
	// pinning the mining loop.
	Learn learn.Config

	// Store, when set, persists mined models and reports so drift state
	// survives restarts.
	Store *store.Store

	// Now is the clock (tests); nil means time.Now.
	Now func() time.Time

	// OnVerdict, when set, fires after every completed mining round
	// that assigned a verdict, with the previous verdict and a copy of
	// the fresh report — the hook that turns drift flips into alert
	// events instead of a counter the operator has to poll. Called
	// with the class state locked: the hook must not call back into
	// the Miner.
	OnVerdict func(prev string, r Report)
}

func (c Config) withDefaults() Config {
	if c.MaxClasses == 0 {
		c.MaxClasses = 1024
	}
	c.Corpus = c.Corpus.withDefaults()
	if c.ExtraStates == 0 {
		c.ExtraStates = 1
	}
	if c.Learn.MaxQueries == 0 {
		c.Learn.MaxQueries = 1 << 20
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Resolver maps a class fingerprint ("<module-fp>/<Class>") to its
// statically inferred DFA, or false when the module is not resident.
type Resolver func(classFP string) (*automata.DFA, bool)

// Outcome reports what happened to one ingested event.
type Outcome struct {
	// Accepted: the observation entered the class corpus.
	Accepted bool

	// Shed names the bound that dropped it: "classes" (MaxClasses) or
	// "corpus" (a CorpusConfig bound). Empty when accepted.
	Shed string
}

// Counters is a point-in-time snapshot of the miner's monotonic
// counters, exported as shelleyd_mine_* metrics.
type Counters struct {
	IngestedEvents uint64 // events accepted into corpora
	IngestedTraces uint64 // observations accepted into corpora
	ShedTraces     uint64 // observations dropped by a bound
	Rounds         uint64 // completed mining rounds (per class)
	BudgetTripped  uint64 // mining rounds stopped by a resource budget
	DriftFlips     uint64 // verdict transitions into DRIFT
}

// Miner owns the per-class corpora, the mined models, and the drift
// reports. Ingest is cheap and lock-light (per-class RWMutex appends);
// all learning happens in MineRound, which the daemon drives from a
// background loop — never from a request handler.
type Miner struct {
	cfg Config

	mu      sync.RWMutex
	classes map[string]*classState

	ingestedEvents atomic.Uint64
	ingestedTraces atomic.Uint64
	shedTraces     atomic.Uint64
	rounds         atomic.Uint64
	budgetTripped  atomic.Uint64
	driftFlips     atomic.Uint64
}

type classState struct {
	classFP string
	corpus  *Corpus

	mu           sync.Mutex // guards mined/report/minedVersion
	mined        *automata.DFA
	report       Report
	minedVersion uint64

	// failedVersion is the corpus version of the last failed round.
	// While the corpus stays at it, the class is skipped instead of
	// re-attempted: a budget-tripping corpus would otherwise burn a full
	// deadline every tick while making no progress. Fresh traffic bumps
	// the version and re-arms mining.
	failedVersion uint64
}

// NewMiner returns a Miner, restoring persisted mined models and
// reports from cfg.Store when one is configured.
func NewMiner(cfg Config) *Miner {
	m := &Miner{cfg: cfg.withDefaults(), classes: make(map[string]*classState)}
	m.loadPersisted()
	return m
}

// Ingest appends one observation to its class corpus; it never blocks
// on mining. Unknown classes are admitted until MaxClasses.
func (m *Miner) Ingest(ev Event) Outcome {
	accepted, ok := ev.Accepted()
	if !ok || ev.ClassFP == "" {
		// DecodeFrame filters these; direct callers get a shed.
		m.shedTraces.Add(1)
		return Outcome{Shed: "corpus"}
	}
	cs := m.class(ev.ClassFP)
	if cs == nil {
		m.shedTraces.Add(1)
		return Outcome{Shed: "classes"}
	}
	if !cs.corpus.Add(ev.Device, ev.Events, accepted) {
		m.shedTraces.Add(1)
		return Outcome{Shed: "corpus"}
	}
	m.ingestedTraces.Add(1)
	m.ingestedEvents.Add(uint64(len(ev.Events)))
	return Outcome{Accepted: true}
}

func (m *Miner) class(classFP string) *classState {
	m.mu.RLock()
	cs := m.classes[classFP]
	m.mu.RUnlock()
	if cs != nil {
		return cs
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if cs := m.classes[classFP]; cs != nil {
		return cs
	}
	if len(m.classes) >= m.cfg.MaxClasses {
		return nil
	}
	cs = &classState{
		classFP: classFP,
		corpus:  NewCorpus(m.cfg.Corpus),
		report:  Report{ClassFP: classFP, Verdict: VerdictPending},
	}
	m.classes[classFP] = cs
	return cs
}

// Classes returns the tracked class fingerprints, sorted.
func (m *Miner) Classes() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.classes))
	for fp := range m.classes {
		out = append(out, fp)
	}
	sort.Strings(out)
	return out
}

// Counters snapshots the monotonic counters.
func (m *Miner) Counters() Counters {
	return Counters{
		IngestedEvents: m.ingestedEvents.Load(),
		IngestedTraces: m.ingestedTraces.Load(),
		ShedTraces:     m.shedTraces.Load(),
		Rounds:         m.rounds.Load(),
		BudgetTripped:  m.budgetTripped.Load(),
		DriftFlips:     m.driftFlips.Load(),
	}
}

// Reports returns every class's current drift report, sorted by class
// fingerprint.
func (m *Miner) Reports() []Report {
	fps := m.Classes()
	out := make([]Report, 0, len(fps))
	for _, fp := range fps {
		m.mu.RLock()
		cs := m.classes[fp]
		m.mu.RUnlock()
		if cs == nil {
			continue
		}
		cs.mu.Lock()
		r := cs.report
		cs.mu.Unlock()
		// Counterexample/Missing slices are never mutated after
		// publication, so sharing them is safe.
		out = append(out, r)
	}
	return out
}

// RoundStats summarizes one MineRound.
type RoundStats struct {
	Mined   int // classes (re-)mined this round
	Skipped int // classes with no new accepted traces
	Errors  int // classes whose mining failed
}

// MineRound re-mines every class whose accepted language changed since
// its last round, then re-runs drift detection against the statically
// inferred model from resolve. The context carries the resource budget
// and deadline; a class that trips it is reported (VerdictError) and
// the round moves on.
func (m *Miner) MineRound(ctx context.Context, resolve Resolver) RoundStats {
	var st RoundStats
	for _, fp := range m.Classes() {
		m.mu.RLock()
		cs := m.classes[fp]
		m.mu.RUnlock()
		if cs == nil {
			continue
		}
		mined, err := m.mineClass(ctx, cs, resolve)
		switch {
		case err != nil:
			st.Errors++
		case mined:
			st.Mined++
		default:
			st.Skipped++
		}
		if ctx.Err() != nil {
			break
		}
	}
	return st
}

// mineClass runs one class's mining round; it reports (false, nil) when
// there was nothing new to mine.
func (m *Miner) mineClass(ctx context.Context, cs *classState, resolve Resolver) (bool, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()

	snap := cs.corpus.Snapshot()
	stale := cs.report.Warm || cs.report.Verdict == VerdictNoStatic
	if snap.Stats.Traces == 0 {
		// Nothing accepted yet (or a warm restart with no fresh traffic):
		// keep the existing model and report, refresh live statistics.
		if cs.report.Verdict != VerdictPending {
			return false, nil
		}
		cs.report.Events = snap.Stats.Events
		cs.report.Devices = snap.Stats.Devices
		cs.report.Shed = snap.Stats.Shed
		return false, nil
	}
	if snap.Stats.Version == cs.minedVersion && cs.mined != nil && !stale {
		return false, nil
	}
	if cs.failedVersion != 0 && snap.Stats.Version == cs.failedVersion {
		return false, nil
	}

	if cs.mined == nil || snap.Stats.Version != cs.minedVersion {
		teacher := &corpusTeacher{ctx: ctx, snap: snap, extra: m.cfg.ExtraStates}
		res, err := learn.LStarCtx(ctx, teacher, m.cfg.Learn)
		if err == nil && teacher.err != nil {
			err = teacher.err
		}
		if err != nil {
			if errors.Is(err, budget.ErrExceeded) || errors.Is(err, budget.ErrCanceled) {
				m.budgetTripped.Add(1)
			}
			cs.failedVersion = snap.Stats.Version
			cs.report.Error = err.Error()
			if cs.mined == nil {
				cs.report.Verdict = VerdictError
			}
			return false, err
		}
		cs.mined = res.DFA
		cs.minedVersion = snap.Stats.Version
		cs.report.Rounds = res.Rounds
		cs.report.MembershipQueries = res.MembershipQueries
	}
	m.rounds.Add(1)

	prev := cs.report.Verdict
	cs.report.Error = ""
	cs.report.Warm = false
	cs.report.MinedStates = cs.mined.NumStates()
	cs.report.Traces = snap.Stats.Traces
	cs.report.Events = snap.Stats.Events
	cs.report.Devices = snap.Stats.Devices
	cs.report.Shed = snap.Stats.Shed
	cs.report.MinedAtUnix = m.cfg.Now().Unix()
	cs.report.Counterexample = nil
	cs.report.Missing = nil

	static, ok := resolve(cs.classFP)
	if !ok {
		cs.report.Verdict = VerdictNoStatic
		cs.report.StaticStates = 0
		cs.failedVersion = 0
		m.persist(cs)
		if m.cfg.OnVerdict != nil {
			m.cfg.OnVerdict(prev, cs.report)
		}
		return true, nil
	}
	verdict, cex, missing, err := Diff(ctx, cs.mined, static)
	if err != nil {
		if errors.Is(err, budget.ErrExceeded) || errors.Is(err, budget.ErrCanceled) {
			m.budgetTripped.Add(1)
		}
		cs.failedVersion = snap.Stats.Version
		cs.report.Error = err.Error()
		if prev == VerdictPending {
			cs.report.Verdict = VerdictError
		}
		return false, err
	}
	cs.report.Verdict = verdict
	cs.report.Counterexample = cex
	cs.report.Missing = missing
	cs.report.StaticStates = static.NumStates()
	if verdict == VerdictDrift && prev != VerdictDrift {
		m.driftFlips.Add(1)
	}
	cs.failedVersion = 0
	m.persist(cs)
	if m.cfg.OnVerdict != nil {
		m.cfg.OnVerdict(prev, cs.report)
	}
	return true, nil
}

// corpusTeacher answers L* queries from a corpus snapshot: membership
// is observed-accept (the PTA), and equivalence layers three checks —
//
//  1. observed-accept completeness: every corpus trace the hypothesis
//     rejects is a counterexample (exact; guarantees a drifting trace
//     can never be silently dropped from the mined model);
//  2. W-method sampling via learn.Conformance, the ISSUE's production
//     use of the conformance machinery, catching hypothesis
//     over-acceptance early with short witnesses;
//  3. an exact symmetric-difference product against the PTA as the
//     final arbiter, so the accepted hypothesis is exactly the minimal
//     DFA of the observed language (a corpus of conforming traffic can
//     therefore never yield a false DRIFT).
//
// Counterexamples from every layer are genuine membership
// disagreements, so L*'s invalid-counterexample guard never fires.
type corpusTeacher struct {
	ctx   context.Context
	snap  *Snapshot
	extra int

	// err records an equivalence-side budget trip; the Teacher interface
	// cannot return errors, so Equivalent accepts the hypothesis and the
	// caller promotes err after LStarCtx returns.
	err error
}

func (t *corpusTeacher) Alphabet() []string { return t.snap.Alphabet }

func (t *corpusTeacher) Member(trace []string) bool { return t.snap.PTA.Accepts(trace) }

// wmethodMaxStates bounds the hypotheses the W-method layer runs on:
// its suite is quadratic in hypothesis states (times |A|^(extra+1)), so
// past this size the short-witness benefit no longer pays for the suite
// and the exact product below does all the work alone.
const wmethodMaxStates = 64

func (t *corpusTeacher) Equivalent(hyp *automata.DFA) ([]string, bool) {
	for _, tr := range t.snap.Traces {
		if !hyp.Accepts(tr) {
			return tr, false
		}
	}
	if hyp.NumStates() <= wmethodMaxStates {
		suite, err := learn.WMethodSuiteCtx(t.ctx, hyp, t.extra)
		if err != nil {
			t.err = err
			return nil, true
		}
		if cex, ok := learn.Conformance(hyp, t.snap.PTA.Accepts, suite); !ok {
			return cex, false
		}
	}
	w, same, err := automata.DistinguishCtx(t.ctx, hyp, t.snap.PTA)
	if err != nil {
		t.err = err
		return nil, true
	}
	return w, same
}

// persisted is the store payload of one class: the drift report plus
// the mined model, re-encoded with the automata codec.
type persisted struct {
	Report Report          `json:"report"`
	Mined  json.RawMessage `json:"mined,omitempty"`
}

func storeKey(classFP string) string { return "mine\x00" + classFP }

// manifestKey indexes the persisted classes; the store has no key
// enumeration, so the manifest is the boot-time directory.
const manifestKey = "mine\x00manifest\x00v1"

// persist writes the class's mined model and report through the store's
// write-behind queue; callers hold cs.mu.
func (m *Miner) persist(cs *classState) {
	if m.cfg.Store == nil {
		return
	}
	var minedRaw json.RawMessage
	if cs.mined != nil {
		raw, err := automata.Marshal(cs.mined)
		if err != nil {
			return
		}
		minedRaw = raw
	}
	payload, err := json.Marshal(persisted{Report: cs.report, Mined: minedRaw})
	if err != nil {
		return
	}
	m.cfg.Store.Put(storeKey(cs.classFP), payload)
	m.persistManifest()
}

func (m *Miner) persistManifest() {
	fps := m.Classes()
	payload, err := json.Marshal(fps)
	if err != nil {
		return
	}
	m.cfg.Store.Put(manifestKey, payload)
}

// loadPersisted restores mined models and reports; restored reports are
// marked Warm until fresh traffic re-mines the class.
func (m *Miner) loadPersisted() {
	if m.cfg.Store == nil {
		return
	}
	raw, ok := m.cfg.Store.Get(manifestKey)
	if !ok {
		return
	}
	var fps []string
	if err := json.Unmarshal(raw, &fps); err != nil {
		return
	}
	for _, fp := range fps {
		if fp == "" || len(m.classes) >= m.cfg.MaxClasses {
			continue
		}
		payload, ok := m.cfg.Store.Get(storeKey(fp))
		if !ok {
			continue
		}
		var p persisted
		if err := json.Unmarshal(payload, &p); err != nil || p.Report.ClassFP != fp {
			continue
		}
		cs := &classState{
			classFP: fp,
			corpus:  NewCorpus(m.cfg.Corpus),
			report:  p.Report,
		}
		cs.report.Warm = true
		if len(p.Mined) > 0 {
			if d, err := automata.Unmarshal(p.Mined); err == nil {
				cs.mined = d
			}
		}
		m.classes[fp] = cs
	}
}
