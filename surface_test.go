package shelley

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceKeepers are the exported package-level functions of internal/
// that no non-test file calls yet stay, keyed "importpath.Name".
var surfaceKeepers = map[string]string{
	"internal/automata.FromRegexThompson": "reference construction of the Ablations table (bench_test.go)",
	"internal/automata.FromRegexGlushkov": "reference construction of the Ablations table (bench_test.go)",
	"internal/automata.SubsetDFA":         "oracle of the precise ⊆ union test in the root package",
	"internal/ltlf.CompileNegation":       "reference the minterm claim compile is checked against",
	"internal/learn.NewDFATeacher":        "exact teacher the L* tests learn against",
	"internal/ir.Hash":                    "pins the cache-key encoding in the ir tests",
	"internal/ir.Random":                  "random program generator of the ir property tests",
	"internal/ir.MustParse":               "test constructor for literal programs",
	"internal/ltlf.MustParse":             "test constructor for literal formulas",
	"internal/regex.MustParse":            "test constructor for literal expressions",
	"internal/pyast.Unparse":              "the frontend round-trip property (ROADMAP item 10) needs it",
	"internal/pyparse.ParseClass":         "parses one class alone; the parser tests pin its errors",
	"internal/obs.WithClock":              "seam for deterministic simulation (ROADMAP item 7)",
	"internal/obs.WithDeterministicIDs":   "seam for deterministic simulation (ROADMAP item 7)",
	"internal/store.NewFaultFS":           "constructs FaultFS, the fault-injection seam of ROADMAP item 7",
	"internal/automata.CompileMinimal":    "budget-free compile that the automata, learner, viz and paper tests build DFAs with",
	"internal/regex.Enumerate":            "oracle of the Theorem 1-2 tests (core and root packages)",
	"internal/regex.TraceSet":             "compares enumerations in the Theorem 1-2 tests",
	"internal/regex.Equivalent":           "derivative-based language equality, the oracle of the core and automata tests",
	"internal/trace.Language":             "the paper's trace semantics, enumerated by the Theorem 1-2 tests",
	"internal/trace.InLanguage":           "the paper's trace membership, checked by the root package's paper tests",
}

// TestInternalSurfaceHasCallers keeps internal/ from exporting functions
// that only their own tests call. Every exported package-level function
// declared in a non-test file under internal/ must be referenced, outside
// its own declaration, by some non-test .go file of the repository
// (perfbench/ included): through an import selector, or as a plain
// identifier inside its own package. Dot-directories and testdata are
// skipped. The check reads syntax only (go/parser, go/ast), so it does
// not cover methods: telling which type a selector's receiver has needs
// go/types.
func TestInternalSurfaceHasCallers(t *testing.T) {
	const module = "github.com/shelley-go/shelley"
	type file struct {
		dir string // directory relative to the repository root, "." for the root
		ast *ast.File
	}
	var files []file
	fset := token.NewFileSet()
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
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{filepath.ToSlash(filepath.Dir(path)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// declared["internal/x"]["F"] is the declaration of x.F.
	declared := map[string]map[string]*ast.FuncDecl{}
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() {
				continue
			}
			if declared[f.dir] == nil {
				declared[f.dir] = map[string]*ast.FuncDecl{}
			}
			declared[f.dir][fd.Name.Name] = fd
		}
	}

	used := map[string]bool{}
	for _, f := range files {
		imports := map[string]string{} // local name → directory
		for _, spec := range f.ast.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			rel, ok := strings.CutPrefix(path, module+"/")
			if !ok || declared[rel] == nil {
				continue
			}
			local := rel[strings.LastIndex(rel, "/")+1:]
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imports[local] = rel
		}
		own := declared[f.dir]
		skip := map[*ast.Ident]bool{} // selected field and method names, declared function names
		for _, d := range f.ast.Decls {
			self, _ := d.(*ast.FuncDecl)
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					skip[n.Name] = true
				case *ast.SelectorExpr:
					skip[n.Sel] = true
					if x, ok := n.X.(*ast.Ident); ok {
						if dir, ok := imports[x.Name]; ok {
							used[dir+"."+n.Sel.Name] = true
							return false
						}
					}
				case *ast.Ident:
					if fd := own[n.Name]; fd != nil && fd != self && !skip[n] {
						used[f.dir+"."+n.Name] = true
					}
				}
				return true
			})
		}
	}

	var dead []string
	for dir, funcs := range declared {
		for name, fd := range funcs {
			key := dir + "." + name
			if used[key] {
				continue
			}
			if _, ok := surfaceKeepers[key]; ok {
				continue
			}
			dead = append(dead, fset.Position(fd.Pos()).String()+": "+key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported function with no caller outside tests: %s", d)
	}
	for key := range surfaceKeepers {
		dir, name, _ := strings.Cut(key, ".")
		if declared[dir][name] == nil {
			t.Errorf("surfaceKeepers names %s, which is not declared", key)
		} else if used[key] {
			t.Errorf("surfaceKeepers names %s, which has a non-test caller: drop the entry", key)
		}
	}
}
