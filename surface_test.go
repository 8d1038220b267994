package shelley

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// surfaceKeepers are the exported functions and methods of internal/
// that no non-test file calls yet stay, keyed "importpath.Name" or
// "importpath.Type.Method".
var surfaceKeepers = map[string]string{
	"internal/automata.FromRegexThompson":  "reference construction of the Ablations table (bench_test.go)",
	"internal/automata.FromRegexGlushkov":  "reference construction of the Ablations table (bench_test.go)",
	"internal/automata.NFA.Determinize":    "reference determinization of the Ablations table (bench_test.go)",
	"internal/automata.NFA.NumStates":      "state count of the reference NFAs in the Ablations table (bench_test.go)",
	"internal/budget.Gate.N":               "tick count the automata and learner tests compare with their reference searches",
	"internal/ir.Labels":                   "a program's call labels, the oracle of the ir and core alphabet property tests",
	"internal/automata.SubsetDFA":          "oracle of the precise ⊆ union test in the root package",
	"internal/ltlf.CompileNegation":        "reference the minterm claim compile is checked against",
	"internal/learn.NewDFATeacher":         "exact teacher the L* tests learn against",
	"internal/ir.Hash":                     "pins the cache-key encoding in the ir tests",
	"internal/ir.Random":                   "random program generator of the ir property tests",
	"internal/ir.MustParse":                "test constructor for literal programs",
	"internal/ltlf.MustParse":              "test constructor for literal formulas",
	"internal/regex.MustParse":             "test constructor for literal expressions",
	"internal/pyast.Unparse":               "the frontend round-trip property (ROADMAP item 10) needs it",
	"internal/pyparse.ParseClass":          "parses one class alone; the parser tests pin its errors",
	"internal/pyexec.Env.RegisterClass":    "composite concrete runs (ROADMAP item 16) construct subsystems through it",
	"internal/pyexec.Env.Events":           "composite concrete runs (ROADMAP item 16) read the subsystem calls they made",
	"internal/server.statusPage.GaugeRows": "called by name from the /v1/status HTML template",
	"internal/obs.WithClock":               "seam for deterministic simulation (ROADMAP item 7)",
	"internal/obs.WithDeterministicIDs":    "seam for deterministic simulation (ROADMAP item 7)",
	"internal/store.NewFaultFS":            "constructs FaultFS, the fault-injection seam of ROADMAP item 7",
	"internal/store.FaultFS.SetFaults":     "arms FaultFS, the fault-injection seam of ROADMAP item 7",
	"internal/store.FaultFS.Injected":      "counts FaultFS's injected faults (ROADMAP item 7)",
	"internal/store.FaultFS.Torn":          "counts FaultFS's torn writes (ROADMAP item 7)",
	"internal/automata.CompileMinimal":     "budget-free compile that the automata, learner, viz and paper tests build DFAs with",
	"internal/regex.Enumerate":             "oracle of the Theorem 1-2 tests (core and root packages)",
	"internal/regex.TraceSet":              "compares enumerations in the Theorem 1-2 tests",
	"internal/regex.Equivalent":            "derivative-based language equality, the oracle of the core and automata tests",
	"internal/trace.Language":              "the paper's trace semantics, enumerated by the Theorem 1-2 tests",
	"internal/trace.InLanguage":            "the paper's trace membership, checked by the root package's paper tests",
}

// errorConventions are the interfaces the errors package asserts
// inside function bodies, which the source importer does not check.
const errorConventions = `package conventions

type unwrapper interface{ Unwrap() error }
type multiUnwrapper interface{ Unwrap() []error }
type iser interface{ Is(error) bool }
type aser interface{ As(any) bool }
`

const modulePath = "github.com/shelley-go/shelley"

// repoPkg is one type-checked package of the repository's non-test code.
type repoPkg struct {
	dir   string // relative to the repository root, "." for the root
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// repo holds every non-test package of the repository, perfbench/
// included, type-checked against one another; dot-directories and
// testdata are skipped. Standard-library imports come from source.
type repo struct {
	fset *token.FileSet
	pkgs map[string]*repoPkg // by dir
	std  types.Importer
	// conventions holds errorConventions, type-checked.
	conventions *types.Package
}

var (
	repoOnce   sync.Once
	loadedRepo *repo
	repoErr    error
)

// loadRepo type-checks the repository once per test binary.
func loadRepo(t *testing.T) *repo {
	t.Helper()
	repoOnce.Do(func() { loadedRepo, repoErr = parseRepo() })
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	return loadedRepo
}

func parseRepo() (*repo, error) {
	r := &repo{fset: token.NewFileSet(), pkgs: map[string]*repoPkg{}}
	r.std = importer.ForCompiler(r.fset, "source", nil)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(r.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if r.pkgs[dir] == nil {
			r.pkgs[dir] = &repoPkg{dir: dir}
		}
		r.pkgs[dir].files = append(r.pkgs[dir].files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for dir := range r.pkgs {
		if _, err := r.check(dir); err != nil {
			return nil, err
		}
	}
	f, err := parser.ParseFile(r.fset, "conventions.go", errorConventions, 0)
	if err != nil {
		return nil, err
	}
	r.conventions, err = (&types.Config{}).Check("conventions", r.fset, []*ast.File{f}, nil)
	return r, err
}

// check type-checks the package in dir after the repository packages it
// imports.
func (r *repo) check(dir string) (*types.Package, error) {
	p := r.pkgs[dir]
	if p == nil {
		return nil, &fs.PathError{Op: "import", Path: dir, Err: fs.ErrNotExist}
	}
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	path := modulePath
	if dir != "." {
		path += "/" + dir
	}
	var err error
	p.types, err = (&types.Config{Importer: r}).Check(path, r.fset, p.files, p.info)
	return p.types, err
}

// Import resolves repository paths to their directories and everything
// else to the standard library.
func (r *repo) Import(path string) (*types.Package, error) {
	if path == modulePath {
		return r.check(".")
	}
	if rel, ok := strings.CutPrefix(path, modulePath+"/"); ok {
		return r.check(rel)
	}
	return r.std.Import(path)
}

// interfaces returns, by method name, every non-generic interface the
// repository can see: named ones of each package it imports
// (transitively), the literals in its own code, and errorConventions.
func (r *repo) interfaces() map[string][]*types.Interface {
	byMethod := map[string][]*types.Interface{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byMethod[name] = append(byMethod[name], it)
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				add(n)
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	visit(r.conventions)
	for _, p := range r.pkgs {
		visit(p.types)
		for _, obj := range p.info.Defs {
			if v, ok := obj.(*types.Var); ok {
				add(v.Type())
			}
		}
	}
	return byMethod
}

// satisfiesInterface reports whether m is a method some interface of
// ifaces names and m's receiver type, or a pointer to it, implements —
// a method that can be called without naming it.
func satisfiesInterface(m *types.Func, ifaces map[string][]*types.Interface) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	if n, ok := recv.(*types.Named); ok && n.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces[m.Name()] {
		if types.Identical(it, recv.Underlying()) {
			continue // an interface method is not reached through its own interface
		}
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

// surfaceKey names fn "dir.Name" or "dir.Type.Name".
func surfaceKey(dir string, fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return dir + "." + fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return dir + "." + t.Obj().Name() + "." + fn.Name()
	default:
		return dir + "." + types.TypeString(t, nil) + "." + fn.Name()
	}
}

// TestInternalSurfaceHasCallers keeps internal/ from exporting functions
// and methods that only tests call. Every exported function, and every
// exported method of a type, declared in a non-test file under internal/
// must be referenced, outside its own declaration, by some non-test .go
// file of the repository (perfbench/ included), or satisfy an interface
// the repository can see (it is then called without being named), or
// have a surfaceKeepers entry giving its reason.
func TestInternalSurfaceHasCallers(t *testing.T) {
	r := loadRepo(t)
	type decl struct {
		key      string
		pos, end token.Pos
	}
	declared := map[*types.Func]decl{}
	for _, p := range r.pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				declared[fn] = decl{surfaceKey(p.dir, fn), fd.Pos(), fd.End()}
			}
		}
		// Exported interface methods are the surface too: calls through
		// them are how a satisfying method is reached.
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					m := it.ExplicitMethod(i)
					if m.Exported() {
						declared[m] = decl{key: p.dir + "." + tn.Name() + "." + m.Name()}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	for _, p := range r.pkgs {
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			d, ok := declared[fn.Origin()]
			if !ok || (d.pos <= id.Pos() && id.Pos() < d.end) {
				continue
			}
			used[d.key] = true
		}
	}

	ifaces := r.interfaces()
	var dead []string
	for fn, d := range declared {
		if used[d.key] {
			continue
		}
		if fn.Type().(*types.Signature).Recv() != nil && satisfiesInterface(fn, ifaces) {
			used[d.key] = true
			continue
		}
		if _, ok := surfaceKeepers[d.key]; ok {
			continue
		}
		dead = append(dead, r.fset.Position(fn.Pos()).String()+": "+d.key)
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported function or method with no caller outside tests: %s", d)
	}
	keys := map[string]bool{}
	for _, d := range declared {
		keys[d.key] = true
	}
	for key := range surfaceKeepers {
		if !keys[key] {
			t.Errorf("surfaceKeepers names %s, which is not declared", key)
		} else if used[key] {
			t.Errorf("surfaceKeepers names %s, which has a non-test caller or satisfies an interface: drop the entry", key)
		}
	}
}

// TestServerConfigFieldsAreSet keeps server.Config from carrying knobs
// that only tests turn: every exported field must be set, by a
// composite-literal key or an assignment, in some non-test file outside
// internal/server (cmd/shelleyd and perfbench/ are the daemon's
// builders).
func TestServerConfigFieldsAreSet(t *testing.T) {
	r := loadRepo(t)
	srv := r.pkgs["internal/server"]
	if srv == nil {
		t.Fatal("internal/server not loaded")
	}
	cfg, ok := srv.types.Scope().Lookup("Config").Type().Underlying().(*types.Struct)
	if !ok {
		t.Fatal("server.Config is not a struct")
	}
	set := map[types.Object]bool{}
	for _, p := range r.pkgs {
		if p.dir == srv.dir {
			continue
		}
		mark := func(e ast.Expr) {
			var id *ast.Ident
			switch e := e.(type) {
			case *ast.Ident:
				id = e
			case *ast.SelectorExpr:
				id = e.Sel
			default:
				return
			}
			if obj := p.info.Uses[id]; obj != nil {
				set[obj] = true
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							mark(kv.Key)
						}
					}
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						mark(e)
					}
				case *ast.IncDecStmt:
					mark(n.X)
				}
				return true
			})
		}
	}
	for i := 0; i < cfg.NumFields(); i++ {
		f := cfg.Field(i)
		if f.Exported() && !set[f] {
			t.Errorf("server.Config.%s is set by no non-test file outside internal/server", f.Name())
		}
	}
}
