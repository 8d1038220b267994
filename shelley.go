package shelley

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/budget"
	"github.com/shelley-go/shelley/internal/check"
	"github.com/shelley-go/shelley/internal/hw"
	"github.com/shelley-go/shelley/internal/interp"
	"github.com/shelley-go/shelley/internal/learn"
	"github.com/shelley-go/shelley/internal/ltlf"
	"github.com/shelley-go/shelley/internal/model"
	"github.com/shelley-go/shelley/internal/nusmv"
	"github.com/shelley-go/shelley/internal/obs"
	"github.com/shelley-go/shelley/internal/pipeline"
	"github.com/shelley-go/shelley/internal/pyast"
	"github.com/shelley-go/shelley/internal/pyexec"
	"github.com/shelley-go/shelley/internal/pyparse"
	"github.com/shelley-go/shelley/internal/regex"
	"github.com/shelley-go/shelley/internal/viz"
)

// Re-exported result types. Aliases keep the internal packages as the
// single source of truth while making the types usable by importers.
type (
	// Report is the outcome of verifying one class.
	Report = check.Report

	// Diagnostic is one verification finding.
	Diagnostic = check.Diagnostic

	// Kind classifies a diagnostic.
	Kind = check.Kind

	// Instance is a simulated object of an annotated class.
	Instance = interp.Instance

	// System is a simulated composite with live subsystem instances.
	System = interp.System

	// DFA is a deterministic finite automaton.
	DFA = automata.DFA

	// LearnResult is the outcome of an L* run.
	LearnResult = learn.Result

	// Violation is one invalid complete usage found by UsageViolations.
	Violation = check.Violation

	// Option configures Check/FlattenedDFA/UsageViolations (e.g.
	// Precise, check.WithCache).
	Option = check.Option

	// Board is an emulated GPIO board (internal/hw).
	Board = hw.Board

	// Device is a concretely executing instance of a base class: its
	// method bodies run against real emulated pins (internal/pyexec).
	Device = pyexec.Object

	// PipelineStats is the observability snapshot of an analysis
	// cache: per-stage hit/miss counters, live entry counts, and build
	// wall-time histograms.
	PipelineStats = pipeline.Stats

	// PipelineStageStats is the per-stage slice of PipelineStats.
	PipelineStageStats = pipeline.StageStats
)

// NewBoard returns an empty emulated GPIO board.
func NewBoard() *Board { return hw.NewBoard() }

// Budget bounds the resources one verification may consume: maximum
// NFA/DFA states per construction, maximum regex size, and maximum
// search nodes per counterexample search. The zero value means
// unlimited. Attach a budget to a context with WithBudget and pass that
// context to CheckContext / CheckAllContext; when a construction would
// exceed the budget the check returns a structured error matching
// ErrBudgetExceeded instead of pinning the goroutine.
type Budget = budget.Limits

// DefaultBudget returns the production limits shelleyd ships with:
// generous enough for every legitimate class in the corpus, small
// enough that a blowup dies in bounded time and memory.
func DefaultBudget() Budget { return budget.Default() }

// WithBudget returns a context carrying the resource budget; every
// budget-aware construction reached through that context enforces it.
func WithBudget(ctx context.Context, b Budget) context.Context {
	return budget.With(ctx, b)
}

// Sentinel errors for classifying verification failures with errors.Is.
var (
	// ErrBudgetExceeded matches every budget-exceeded error, regardless
	// of which resource tripped; errors.As against *budget.Err exposes
	// the resource, operation, and limit.
	ErrBudgetExceeded = budget.ErrExceeded

	// ErrCanceled matches errors from constructions interrupted by
	// context cancellation or deadline expiry.
	ErrCanceled = budget.ErrCanceled
)

// Diagnostic kinds, re-exported.
const (
	KindStructure             = check.KindStructure
	KindUndefinedMethod       = check.KindUndefinedMethod
	KindNonExhaustiveMatch    = check.KindNonExhaustiveMatch
	KindUselessCase           = check.KindUselessCase
	KindInvalidSubsystemUsage = check.KindInvalidSubsystemUsage
	KindClaimFailure          = check.KindClaimFailure
)

// Module is a loaded MicroPython source file: its classes, the registry
// used to resolve subsystem types, and the memoizing analysis cache
// the module is bound to.
type Module struct {
	classes  []*Class
	registry check.Registry

	// cache memoizes the expensive pipeline stages across all classes
	// and all Check/Behavior/SpecDFA/FlattenedDFA calls of the module,
	// including concurrent ones (CheckAllConcurrent workers share it),
	// and across every other module bound to the same Cache. nil when
	// caching is disabled via SetPipelineCaching(false).
	cache *pipeline.Cache
}

// Cache is a bounded analysis cache that any number of modules and
// sessions can share. Its artifacts are keyed by content — ⟦p⟧ per
// method body, automata and reports per class fingerprint — so one
// entry serves all that contain the same content. Safe for concurrent
// use.
type Cache struct{ pc *pipeline.Cache }

// NewCache returns an empty analysis cache.
func NewCache() *Cache { return &Cache{pc: pipeline.New()} }

// NewSession returns an empty session bound to c.
func (c *Cache) NewSession() *Session { return &Session{cache: c} }

// PersistReports attaches a durable read-through/write-behind layer to
// c's report stage: a report missing from memory is looked up in p
// before being recomputed, and every computed report (never an error)
// is handed to p.Put. p is a concurrency-safe, best-effort byte store,
// such as internal/store's Store. Attach before serving traffic.
func (c *Cache) PersistReports(p pipeline.Persister) {
	c.pc.Persist(pipeline.StageReport, p, check.ReportCodec())
}

// Stats returns a snapshot of c's counters: the work of every module
// and session bound to c. Safe to call concurrently with checking.
func (c *Cache) Stats() PipelineStats { return c.pc.Stats() }

// LoadReader parses and models every class of a MicroPython source
// read from r. name labels the source in error messages (a file path,
// a request id, ...); an empty name leaves errors unlabeled. It is the
// streaming entry point for sources that never touch the filesystem;
// LoadFile delegates to it, and LoadSource skips the read.
func LoadReader(name string, r io.Reader) (*Module, error) {
	return LoadReaderContext(context.Background(), name, r)
}

// LoadReaderContext is LoadReader with tracing threaded through: the
// parse and modeling of the whole source runs inside a "load.module"
// span (child of ctx's active span) annotated with the source name and
// class count. With no tracer in ctx it is identical to LoadReader.
// The module gets a private cache.
func LoadReaderContext(ctx context.Context, name string, r io.Reader) (*Module, error) {
	return NewCache().Load(ctx, name, r)
}

// Load is LoadReaderContext with the module bound to c.
func (c *Cache) Load(ctx context.Context, name string, r io.Reader) (*Module, error) {
	var b strings.Builder
	if _, err := io.Copy(&b, r); err != nil {
		return nil, loadErr(name, err)
	}
	return c.LoadSource(ctx, name, b.String())
}

// LoadSource is Load over a source already in memory, which the module
// parses in place, without a copy.
func (c *Cache) LoadSource(ctx context.Context, name, src string) (*Module, error) {
	m, _, err := c.load(ctx, name, nil, src, nil)
	return m, err
}

// load parses and models a source into a module bound to c, inside a
// "load.module" span. A session passes its source as bytes in src and
// prev, the class blocks of its resident generation (empty, not nil, on
// its first update): when src cuts into class blocks, the module is
// then built block by block, reusing every block of prev with the same
// start line and bytes, and the new generation's blocks are returned.
// Otherwise the whole source (text, or a copy of src) is parsed at
// once, so errors and their positions are those of ParseModule. The
// syntax trees die with the load: each class keeps its model and the
// text it was parsed from, the whole source or its block.
func (c *Cache) load(ctx context.Context, name string, src []byte, text string, prev classBlocks) (_ *Module, _ classBlocks, err error) {
	_, span := obs.Start(ctx, "load.module", obs.String("source", name))
	defer func() {
		if err != nil {
			span.SetAttr(obs.String("error", err.Error()))
		}
		span.End()
	}()
	if prev != nil {
		if m, blocks := c.loadBlocks(src, prev); m != nil {
			span.SetAttr(obs.Int("classes", len(m.classes)))
			return m, blocks, nil
		}
	}
	if src != nil {
		text = string(src)
	}
	ast, err := pyparse.ParseModule(text)
	if err != nil {
		return nil, nil, loadErr(name, err)
	}
	m := c.newModule()
	for i, cls := range ast.Classes {
		mc, err := model.FromAST(cls)
		if err != nil {
			return nil, nil, loadErr(name, err)
		}
		m.add(mc, text, 1, i)
	}
	span.SetAttr(obs.Int("classes", len(m.classes)))
	return m, nil, nil
}

// newModule returns an empty module bound to c.
func (c *Cache) newModule() *Module { return &Module{registry: check.Registry{}, cache: c.pc} }

// add appends a modeled class to the module: the index-th class of src,
// a source that starts at line; a later class of the same name takes
// over the registry entry.
func (m *Module) add(mc *model.Class, src string, line, index int) {
	m.registry[mc.Name] = mc
	m.classes = append(m.classes, &Class{model: mc, src: src, line: line, index: index, module: m})
}

// loadErr wraps a load failure, labeling it with the source name when
// one is known.
func loadErr(name string, err error) error {
	if name == "" {
		return fmt.Errorf("shelley: %w", err)
	}
	return fmt.Errorf("shelley: %s: %w", name, err)
}

// LoadSource parses and models every class of a MicroPython source
// string.
func LoadSource(src string) (*Module, error) {
	return NewCache().LoadSource(context.Background(), "", src)
}

// LoadFile is LoadReader over a file's contents.
func LoadFile(path string) (*Module, error) {
	return LoadFilesContext(context.Background(), path)
}

// LoadFiles loads several files into one module, so composites can
// reference classes defined elsewhere.
func LoadFiles(paths ...string) (*Module, error) {
	return LoadFilesContext(context.Background(), paths...)
}

// LoadFilesContext is LoadFiles with tracing: each file's parse gets
// its own "load.module" span under ctx's active span.
func LoadFilesContext(ctx context.Context, paths ...string) (*Module, error) {
	cache := NewCache()
	merged := cache.newModule()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, fmt.Errorf("shelley: %w", err)
		}
		m, err := cache.Load(ctx, p, f)
		f.Close()
		if err != nil {
			return nil, err
		}
		for _, c := range m.classes {
			if _, dup := merged.registry[c.Name()]; dup {
				return nil, fmt.Errorf("shelley: class %q defined in more than one file", c.Name())
			}
			c.module = merged
			merged.registry[c.Name()] = c.model
			merged.classes = append(merged.classes, c)
		}
	}
	return merged, nil
}

// PipelineStats returns a snapshot of the counters of the cache the
// module is bound to (Cache.Stats): per-stage hits, misses, live entry
// counts, and build wall-time histograms. Safe to call concurrently
// with checking. With caching disabled the snapshot is all zeroes.
func (m *Module) PipelineStats() PipelineStats { return m.cache.Stats() }

// SetPipelineCaching turns the module's memoization cache on or off.
// Turning it on installs a fresh (empty) cache; turning it off makes
// every subsequent analysis recompute from scratch — the differential
// tests use this to compare cached and uncached runs. Not safe to call
// concurrently with checking.
func (m *Module) SetPipelineCaching(on bool) {
	if on {
		m.cache = pipeline.New()
	} else {
		m.cache = nil
	}
}

// Classes returns the module's classes in source order.
func (m *Module) Classes() []*Class { return append([]*Class(nil), m.classes...) }

// Class returns the named class.
func (m *Module) Class(name string) (*Class, bool) {
	for _, c := range m.classes {
		if c.Name() == name {
			return c, true
		}
	}
	return nil, false
}

// CheckAll verifies every class of the module, in source order, on the
// calling goroutine (CheckAllContext with one worker).
func (m *Module) CheckAll() ([]*Report, error) {
	return m.CheckAllContext(context.Background(), 1)
}

// Class is the Shelley model of one annotated class, bound to its
// module for subsystem resolution. It keeps no syntax tree: the checks
// read only the model, and NewDevice re-parses the class from src, the
// source it was loaded from (the model's strings slice it already), in
// which it is class number index and which starts at line.
type Class struct {
	model  *model.Class
	src    string
	line   int
	index  int
	module *Module
}

// Name returns the class name.
func (c *Class) Name() string { return c.model.Name }

// Operations returns the operation names in source order.
func (c *Class) Operations() []string { return c.model.OperationNames() }

// Subsystems returns the declared subsystem fields in declaration
// order; empty for base classes.
func (c *Class) Subsystems() []string {
	return append([]string(nil), c.model.SubsystemNames...)
}

// Claims returns the @claim formulas in source order.
func (c *Class) Claims() []string {
	out := make([]string, len(c.model.Claims))
	for i, cl := range c.model.Claims {
		out[i] = cl.Formula
	}
	return out
}

// Check runs the full verification pipeline on the class. Options:
// shelley.Precise switches to exit-aware flattening (see DESIGN.md §6).
// Results are memoized in the module's pipeline cache; later options
// win, so callers can override the cache per call via check.WithCache.
func (c *Class) Check(opts ...check.Option) (*Report, error) {
	return check.Check(c.model, c.module.registry, c.withModuleCache(opts)...)
}

// CheckContext is Check with a context threaded through for
// cancellation-free tracing: the verification runs inside a
// "check.class" span (child of ctx's active span) and every pipeline
// stage it triggers nests under it. Identical to Check when ctx
// carries no tracer.
func (c *Class) CheckContext(ctx context.Context, opts ...check.Option) (*Report, error) {
	return check.CheckContext(ctx, c.model, c.module.registry, c.withModuleCache(opts)...)
}

// withModuleCache prepends the module cache option so user-passed
// options can still override it.
func (c *Class) withModuleCache(opts []check.Option) []check.Option {
	return append([]check.Option{check.WithCache(c.module.cache)}, opts...)
}

// Precise is re-exported from the checker: exit-aware flattening that
// removes the union-level over-approximation of the paper's model.
func Precise() check.Option { return check.Precise() }

// Behavior returns the inferred behavior of an operation (§3.2) as a
// regular expression in the paper's concrete syntax, e.g.
// "(a . (b . 0 + c))* + (a . (b . 0 + c))* . a . b".
func (c *Class) Behavior(op string) (string, error) {
	o := c.model.Operation(op)
	if o == nil {
		return "", fmt.Errorf("shelley: class %s has no operation %q", c.Name(), op)
	}
	return c.module.cache.Infer(context.Background(), o.Method.Program).String(), nil
}

// BehaviorSimplified is Behavior after language-preserving
// normalization.
func (c *Class) BehaviorSimplified(op string) (string, error) {
	o := c.model.Operation(op)
	if o == nil {
		return "", fmt.Errorf("shelley: class %s has no operation %q", c.Name(), op)
	}
	return c.module.cache.InferSimplified(context.Background(), o.Method.Program).String(), nil
}

// ProtocolDiagram renders the Fig. 1-style usage diagram as Graphviz
// DOT.
func (c *Class) ProtocolDiagram() string { return viz.ProtocolDOT(c.model) }

// DependencyDiagram renders the §3.1 method dependency graph (Fig. 3)
// as Graphviz DOT.
func (c *Class) DependencyDiagram() (string, error) {
	g, err := c.model.DepGraph()
	if err != nil {
		return "", fmt.Errorf("shelley: %w", err)
	}
	return viz.DepGraphDOT(c.Name(), c.model, g), nil
}

// ProtocolRegex returns the class's whole usage language as a regular
// expression (the protocol automaton converted back through state
// elimination) — a compact, printable form of Corollary 1 applied to
// the class itself.
func (c *Class) ProtocolRegex() (string, error) {
	d, err := c.specDFA("")
	if err != nil {
		return "", err
	}
	return regex.Simplify(d.Minimize().ToRegex()).String(), nil
}

// specDFA is the cached protocol automaton, shared read-only with the
// checker (same StageSpec key: the protocol fingerprint, so body-only
// edits reuse it). The result must not be mutated; public boundaries
// clone.
func (c *Class) specDFA(prefix string) (*DFA, error) {
	return pipeline.Memo(c.module.cache, pipeline.StageSpec,
		pipeline.SpecKey(c.model.ProtocolFingerprint(), prefix),
		func() (*DFA, error) { return c.model.SpecDFA(prefix) })
}

// SpecDFA returns the class's usage-protocol automaton; operation names
// are prefixed with prefix+"." when prefix is non-empty. The caller
// owns the returned automaton.
func (c *Class) SpecDFA(prefix string) (*DFA, error) {
	d, err := c.specDFA(prefix)
	if err != nil {
		return nil, err
	}
	if c.module.cache != nil {
		d = d.Clone()
	}
	return d, nil
}

// NewInstance creates a simulated object of the class.
func (c *Class) NewInstance(opts ...interp.Option) *Instance {
	return interp.NewInstance(c.model, opts...)
}

// NewSystem instantiates the composite class with live subsystem
// instances, resolving subsystem types through the module.
func (c *Class) NewSystem(opts ...interp.Option) (*System, error) {
	return interp.NewSystem(c.model, c.module.registry, opts...)
}

// UsageViolations enumerates up to max distinct invalid complete usages
// per subsystem, shortest first, without a budget.
func (c *Class) UsageViolations(max int, opts ...check.Option) ([]Violation, error) {
	return c.UsageViolationsContext(context.Background(), max, opts...)
}

// UsageViolationsContext is UsageViolations under ctx's resource budget
// (WithBudget) and cancellation, like CheckContext: a pathological
// class stops with ErrBudgetExceeded or ErrCanceled.
func (c *Class) UsageViolationsContext(ctx context.Context, max int, opts ...check.Option) ([]Violation, error) {
	return check.UsageViolationsContext(ctx, c.model, c.module.registry, max, c.withModuleCache(opts)...)
}

// ReplayFlat drives the class's subsystem instances directly with a
// flattened qualified trace (as found in checker counterexamples) and
// returns the first protocol error, or an error when subsystems are
// left in non-final states. A nil result means the trace is a clean,
// complete usage.
func (c *Class) ReplayFlat(trace []string, opts ...interp.Option) error {
	return interp.ReplayFlat(c.model, c.module.registry, trace, opts...)
}

// NewDevice instantiates the class as a concretely executing device on
// the board: __init__ builds real emulated pins, method bodies evaluate
// pin reads, and each call returns the continuation the device actually
// took. Only base classes (whose bodies drive pins, not subsystems) can
// run this way.
func (c *Class) NewDevice(board *Board) (*Device, error) {
	if len(c.model.SubsystemNames) > 0 {
		return nil, fmt.Errorf("shelley: %s is a composite; NewDevice runs base classes (use NewSystem)", c.Name())
	}
	cls, err := c.classDef()
	if err != nil {
		return nil, err
	}
	return pyexec.NewObject(cls, pyexec.NewEnv(board))
}

// classDef re-parses the class's syntax tree from its source.
func (c *Class) classDef() (*pyast.ClassDef, error) {
	mod, err := pyparse.ParseModuleAt(c.src, c.line)
	if err != nil {
		return nil, fmt.Errorf("shelley: %w", err)
	}
	return mod.Classes[c.index], nil
}

// FlattenedDFA returns the class's behavior automaton over subsystem
// operations (for composites) or its own protocol automaton (for base
// classes) — the object claims are verified against.
func (c *Class) FlattenedDFA(opts ...check.Option) (*DFA, error) {
	return check.FlattenedDFA(c.model, c.module.registry, c.withModuleCache(opts)...)
}

// ExportNuSMV renders the class's model as a NuSMV module, the backend
// path the paper's implementation delegates model checking to (§5).
// Claims are included as LTLSPEC properties via the standard
// LTLf-to-LTL encoding.
func (c *Class) ExportNuSMV() (string, error) {
	d, err := c.FlattenedDFA()
	if err != nil {
		return "", err
	}
	claims := make([]ltlf.Formula, len(c.model.Claims))
	for i, cl := range c.model.Claims {
		f, _, err := cl.Parse()
		if err != nil {
			return "", fmt.Errorf("nusmv: claim %q: %w", cl.Formula, err)
		}
		claims[i] = f
	}
	return nusmv.Export(c.Name(), d, claims), nil
}

// LearnKV is Learn with the Kearns–Vazirani classification-tree
// algorithm instead of L*.
func (c *Class) LearnKV() (*LearnResult, error) {
	depth := 2*len(c.model.Operations) + 1
	teacher := learn.NewInstanceTeacher(c.model, depth)
	return learn.KearnsVazirani(teacher, learn.Config{})
}

// RunTrace reports whether the call sequence is a valid complete usage
// of the class under the specification (angelic) semantics — the
// membership oracle used by learning and conformance testing.
func (c *Class) RunTrace(trace []string) bool {
	return interp.Run(c.model, trace, interp.WithAngelic())
}

// ConformanceSuite generates the W-method conformance test suite of the
// class's protocol: any implementation with at most extraStates more
// states than the specification that passes every suite trace implements
// exactly the specified protocol. Use together with NewInstance /
// NewDevice to test implementations against the model.
func (c *Class) ConformanceSuite(extraStates int) ([][]string, error) {
	spec, err := c.specDFA("")
	if err != nil {
		return nil, err
	}
	return learn.WMethodSuite(spec.Minimize(), extraStates), nil
}

// Learn runs L* against a simulated instance of the class and returns
// the learned protocol automaton together with query statistics. The
// result is equivalent to SpecDFA("") — dynamic model inference agrees
// with the static extraction.
func (c *Class) Learn() (*LearnResult, error) {
	depth := 2*len(c.model.Operations) + 1
	teacher := learn.NewInstanceTeacher(c.model, depth)
	return learn.LStar(teacher, learn.Config{})
}

// Names returns the class names in the module, sorted; a convenience
// for tools.
func (m *Module) Names() []string {
	out := make([]string, 0, len(m.classes))
	for _, c := range m.classes {
		out = append(out, c.Name())
	}
	sort.Strings(out)
	return out
}
