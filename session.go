package shelley

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"sync"
	"time"

	"github.com/shelley-go/shelley/internal/depgraph"
	"github.com/shelley-go/shelley/internal/model"
	"github.com/shelley-go/shelley/internal/pyparse"
	"github.com/shelley-go/shelley/internal/pytoken"
)

// Session is the incremental re-verification surface for edit loops
// (ROADMAP open item 4): a mutable module identity over immutable
// per-class and per-method artifacts. Every Update builds a fresh
// Module bound to the session's one Cache (private, or shared via
// Cache.NewSession). The frontend is incremental too: the incoming
// source is cut at its top-level class blocks, and a block with the
// same start line and bytes as one of the resident generation keeps
// that generation's model, so only the edited classes are tokenized,
// parsed and modeled again; no generation keeps a syntax tree. A source
// the cut cannot decide (a module-level statement, a backslash
// continuation, a block that does not parse alone) is parsed whole,
// exactly as LoadSource parses it. Downstream, the content-addressed artifacts of every
// unchanged method (behavior DFAs), unchanged protocol (spec
// automata), and unchanged class (flattened automata, whole-class
// reports) are reused across generations instead of being rebuilt.
// The Diff reports what moved — at class and method granularity — and
// predicts the invalidation frontier by propagating protocol-level
// changes along the class dependency graph; correctness never depends
// on that prediction, because the cache keys themselves encode exactly
// what each stage reads.
//
// A Session is safe for concurrent use; Update/Recheck serialize, so a
// watch loop feeding edits and readers calling Module interleave
// cleanly.
type Session struct {
	mu      sync.Mutex
	cache   *Cache
	mod     *Module
	srcHash string

	// blocks are the class blocks of the resident generation, by start
	// line; empty when it was parsed whole (or before the first Update).
	blocks classBlocks
}

// classBlocks maps the start line of each top-level class block of one
// generation to what the block parsed and modeled to.
type classBlocks map[int]classBlock

// classBlock is one top-level class block: its own copy of the source
// bytes (which the model's strings slice, so a reused model keeps alive
// only its block, never a whole old source) and its model, shared
// read-only by every generation that reuses the block. The block's
// start line is its key in classBlocks.
type classBlock struct {
	text  string
	model *model.Class
}

// NewSession returns an empty session on a private cache; until the
// first Update (or Recheck), Module returns nil.
func NewSession() *Session { return NewCache().NewSession() }

// Module returns the resident module of the session (the last
// successful Update), or nil before the first one.
func (s *Session) Module() *Module {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mod
}

// MethodDiff is the method-granularity difference of one changed class,
// computed from per-operation fingerprints.
type MethodDiff struct {
	// Added, Removed, Changed, and Unchanged partition the union of the
	// two generations' operation names, each sorted.
	Added, Removed, Changed, Unchanged []string
}

// Diff describes what one Update changed relative to the previous
// resident module.
type Diff struct {
	// Initial is true for the session's first Update: there is no
	// previous generation, so everything is Added and Invalidated.
	Initial bool

	// Added, Removed, Changed, and Unchanged partition the union of the
	// two generations' class names (each sorted): present only in the
	// new module, only in the old, in both with a moved fingerprint, or
	// in both byte-identical to the analysis.
	Added, Removed, Changed, Unchanged []string

	// ProtocolChanged lists the changed classes whose externally
	// observable protocol surface moved (model.ProtocolFingerprint) —
	// only these propagate invalidation to their dependents. A class
	// in Changed but not here had a body-only edit: it re-verifies
	// alone and every dependent's cached report stays valid.
	ProtocolChanged []string

	// Methods maps each changed class to its method-level diff.
	Methods map[string]MethodDiff

	// Invalidated predicts the re-verification frontier: the changed
	// and added classes themselves, plus every class of the new module
	// reachable by reverse dependency from a protocol-changed, added,
	// or removed class. Classes outside it are answered entirely from
	// cache on the next check. Sorted.
	Invalidated []string
}

// Clean reports whether the update changed nothing the analysis can
// observe.
func (d Diff) Clean() bool {
	return !d.Initial && len(d.Added) == 0 && len(d.Removed) == 0 && len(d.Changed) == 0
}

// Update parses source into a new module generation sharing the
// session's pipeline cache and makes it resident, returning the module
// and its diff against the previous generation. A parse or model error
// leaves the previous generation resident (the edit loop keeps serving
// the last good module) and returns the error. Identical source (byte
// for byte) is recognized without reparsing.
func (s *Session) Update(ctx context.Context, name string, source []byte) (*Module, Diff, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.updateLocked(ctx, name, source)
}

func (s *Session) updateLocked(ctx context.Context, name string, source []byte) (*Module, Diff, error) {
	sum := sha256.Sum256(source)
	hash := hex.EncodeToString(sum[:])
	if s.mod != nil && hash == s.srcHash {
		d := Diff{Unchanged: classNames(s.mod)}
		return s.mod, d, nil
	}
	prev := s.blocks
	if prev == nil {
		prev = classBlocks{}
	}
	mod, blocks, err := s.cache.load(ctx, name, source, "", prev)
	if err != nil {
		return nil, Diff{}, err
	}
	d := diffModules(s.mod, mod)
	s.mod = mod
	s.srcHash = hash
	s.blocks = blocks
	return mod, d, nil
}

// loadBlocks builds a module from the class blocks of src, taking each
// block unchanged since prev (same start line, same bytes) from prev
// and parsing and modeling every other one alone. It returns a nil
// module when src does not cut into class blocks or a block fails
// alone; the caller then parses src whole, which decides the error.
func (c *Cache) loadBlocks(src []byte, prev classBlocks) (*Module, classBlocks) {
	spans, ok := pytoken.ClassBlocks(src)
	if !ok {
		return nil, nil
	}
	m := c.newModule()
	blocks := make(classBlocks, len(spans))
	for _, sp := range spans {
		text := src[sp.Start:sp.End]
		b, ok := prev[sp.Line]
		if !ok || b.text != string(text) {
			// string(text) copies: the block's private source.
			if b, ok = parseClassBlock(string(text), sp.Line); !ok {
				return nil, nil
			}
		}
		blocks[sp.Line] = b
		m.add(b.model, b.text, sp.Line, 0)
	}
	return m, blocks
}

// parseClassBlock parses and models one class block starting at line.
// It fails unless the block is exactly one class that models cleanly.
func parseClassBlock(text string, line int) (classBlock, bool) {
	mod, err := pyparse.ParseModuleAt(text, line)
	if err != nil || len(mod.Classes) != 1 || len(mod.Stmts) != 0 {
		return classBlock{}, false
	}
	mc, err := model.FromAST(mod.Classes[0])
	if err != nil {
		return classBlock{}, false
	}
	return classBlock{text: text, model: mc}, true
}

// RecheckResult is the outcome of one incremental edit-and-verify
// round.
type RecheckResult struct {
	// Module is the resident module after the update.
	Module *Module

	// Diff is the generation diff the update computed.
	Diff Diff

	// Reports are the verification reports of every class, in source
	// order — byte-identical to what a cold full check of the same
	// source yields.
	Reports []*Report

	// Stats is the difference of the session cache's counters across
	// the re-check (hits: artifacts reused; misses: stages re-executed).
	// On a shared Cache it includes its other users' concurrent work.
	Stats PipelineStats

	// ReusedReports counts classes this round answered from a memoized
	// whole-class report; CheckedClasses counts the ones it checked.
	ReusedReports  int
	CheckedClasses int

	// Elapsed is the wall time of the whole round (update + checks).
	Elapsed time.Duration
}

// Recheck is the one-call edit loop primitive: Update followed by the
// module sweep (Module.CheckAllContext on one worker) over the new
// generation, with the report reuse of exactly this round counted.
// Unchanged classes (and unchanged dependents of body-only edits) are
// answered from the session cache; only stages whose input
// fingerprints moved re-execute. Options (e.g. Precise) apply to every
// class check; a check error is wrapped like CheckAllContext's.
func (s *Session) Recheck(ctx context.Context, name string, source []byte, opts ...Option) (*RecheckResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	mod, d, err := s.updateLocked(ctx, name, source)
	if err != nil {
		return nil, err
	}
	before := mod.PipelineStats()
	reports, reused, err := mod.sweep(ctx, 1, opts)
	if err != nil {
		return nil, err
	}
	return &RecheckResult{
		Module:         mod,
		Diff:           d,
		Reports:        reports,
		Stats:          mod.PipelineStats().Sub(before),
		ReusedReports:  reused,
		CheckedClasses: len(reports) - reused,
		Elapsed:        time.Since(start),
	}, nil
}

// classNames returns the module's class names in source order.
func classNames(m *Module) []string {
	out := make([]string, 0, len(m.classes))
	for _, c := range m.classes {
		out = append(out, c.Name())
	}
	return out
}

// diffModules computes the generation diff, old → new. old may be nil
// (the session's first generation).
func diffModules(old, new *Module) Diff {
	if old == nil {
		names := classNames(new)
		sorted := append([]string(nil), names...)
		sort.Strings(sorted)
		return Diff{Initial: true, Added: sorted, Invalidated: sorted}
	}

	oldByName := make(map[string]*model.Class, len(old.classes))
	for _, c := range old.classes {
		oldByName[c.Name()] = c.model
	}
	d := Diff{Methods: make(map[string]MethodDiff)}
	newNames := make(map[string]struct{}, len(new.classes))
	var protoSeeds []string // classes whose protocol surface moved, plus added/removed names
	for _, c := range new.classes {
		name := c.Name()
		newNames[name] = struct{}{}
		oc, ok := oldByName[name]
		switch {
		case !ok:
			d.Added = append(d.Added, name)
			protoSeeds = append(protoSeeds, name)
		case oc.Fingerprint() == c.model.Fingerprint():
			d.Unchanged = append(d.Unchanged, name)
		default:
			d.Changed = append(d.Changed, name)
			d.Methods[name] = diffMethods(oc, c.model)
			if oc.ProtocolFingerprint() != c.model.ProtocolFingerprint() {
				d.ProtocolChanged = append(d.ProtocolChanged, name)
				protoSeeds = append(protoSeeds, name)
			}
		}
	}
	for _, c := range old.classes {
		if _, ok := newNames[c.Name()]; !ok {
			d.Removed = append(d.Removed, c.Name())
			protoSeeds = append(protoSeeds, c.Name())
		}
	}
	sort.Strings(d.Added)
	sort.Strings(d.Removed)
	sort.Strings(d.Changed)
	sort.Strings(d.Unchanged)
	sort.Strings(d.ProtocolChanged)

	// The invalidation frontier: every changed or added class
	// re-verifies itself; protocol-level changes additionally travel
	// the reverse class-dependency arcs (a dependent reads nothing
	// deeper than a subsystem's protocol, so body-only changes stop at
	// the class that made them).
	uses := make(map[string][]string, len(new.classes))
	for _, c := range new.classes {
		for _, field := range c.model.SubsystemNames {
			uses[c.Name()] = append(uses[c.Name()], c.model.SubsystemTypes[field])
		}
	}
	frontier := make(map[string]struct{})
	for _, name := range d.Changed {
		frontier[name] = struct{}{}
	}
	for _, name := range d.Added {
		frontier[name] = struct{}{}
	}
	for _, name := range depgraph.BuildClasses(uses).Dependents(protoSeeds) {
		if _, ok := newNames[name]; ok {
			frontier[name] = struct{}{}
		}
	}
	d.Invalidated = make([]string, 0, len(frontier))
	for name := range frontier {
		d.Invalidated = append(d.Invalidated, name)
	}
	sort.Strings(d.Invalidated)
	return d
}

// diffMethods partitions the operations of one class across two
// generations by per-operation fingerprint.
func diffMethods(old, new *model.Class) MethodDiff {
	var md MethodDiff
	for _, op := range new.Operations {
		oop := old.Operation(op.Name)
		switch {
		case oop == nil:
			md.Added = append(md.Added, op.Name)
		case oop.Fingerprint() == op.Fingerprint():
			md.Unchanged = append(md.Unchanged, op.Name)
		default:
			md.Changed = append(md.Changed, op.Name)
		}
	}
	for _, op := range old.Operations {
		if new.Operation(op.Name) == nil {
			md.Removed = append(md.Removed, op.Name)
		}
	}
	sort.Strings(md.Added)
	sort.Strings(md.Removed)
	sort.Strings(md.Changed)
	sort.Strings(md.Unchanged)
	return md
}
