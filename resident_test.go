package shelley

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"

	"github.com/shelley-go/shelley/internal/pyast"
	"github.com/shelley-go/shelley/internal/pyexec"
	"github.com/shelley-go/shelley/internal/pyparse"
)

// paperFiles are the paper's case study, one class per file.
var paperFiles = []string{"valve.py", "badsector.py", "goodsector.py"}

// paperSource concatenates the paper's case study into one module.
func paperSource(t testing.TB) string {
	t.Helper()
	var b strings.Builder
	for _, f := range paperFiles {
		src, err := os.ReadFile(filepath.Join("testdata", f))
		if err != nil {
			t.Fatal(err)
		}
		b.Write(src)
	}
	return b.String()
}

// residentWalker walks everything reachable from a value and fails on
// any value a check never reads: a syntax tree node (a type of package
// pyast) or a flattened ε-automaton (check.flatAutomaton).
type residentWalker struct {
	t       *testing.T
	visited map[visit]bool
	seen    map[string]bool // "pkg.Type" names of every struct reached
}

type visit struct {
	ptr uintptr
	typ reflect.Type
}

func walkResident(t *testing.T, what string, root any) map[string]bool {
	t.Helper()
	w := &residentWalker{t: t, visited: map[visit]bool{}, seen: map[string]bool{}}
	w.walk(reflect.ValueOf(root), what)
	return w.seen
}

func (w *residentWalker) walk(v reflect.Value, path string) {
	if !v.IsValid() {
		return
	}
	typ := v.Type()
	for typ.Kind() == reflect.Pointer {
		typ = typ.Elem()
	}
	if pkg := typ.PkgPath(); strings.HasSuffix(pkg, "/internal/pyast") ||
		strings.HasSuffix(pkg, "/internal/check") && typ.Name() == "flatAutomaton" {
		w.t.Fatalf("%s holds a %s", path, v.Type())
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Map:
		if v.IsNil() {
			return
		}
		k := visit{v.Pointer(), v.Type()}
		if w.visited[k] {
			return
		}
		w.visited[k] = true
		if v.Kind() == reflect.Pointer {
			w.walk(v.Elem(), path)
			return
		}
		for it := v.MapRange(); it.Next(); {
			w.walk(it.Key(), path+"[key]")
			w.walk(it.Value(), fmt.Sprintf("%s[%v]", path, it.Key()))
		}
	case reflect.Interface:
		w.walk(v.Elem(), path)
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			w.walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Struct:
		w.seen[typ.String()] = true
		for i := 0; i < v.NumField(); i++ {
			w.walk(v.Field(i), path+"."+typ.Field(i).Name)
		}
	}
}

// TestResidentStateHoldsNoSyntaxTree walks everything a loaded and
// checked module keeps alive — its classes, models, registry and the
// whole analysis cache — for a whole-source load, a session generation
// (built block by block, with reused blocks) and a LoadFiles merge. No
// syntax tree survives a load, and no StageFlatten entry keeps the
// ε-automaton beside its DFA.
func TestResidentStateHoldsNoSyntaxTree(t *testing.T) {
	ctx := context.Background()
	src := paperSource(t)
	checked := func(m *Module) *Module {
		t.Helper()
		if _, err := m.CheckAll(); err != nil {
			t.Fatal(err)
		}
		for _, c := range m.Classes() {
			if _, err := c.Check(Precise()); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}

	whole, err := NewCache().LoadSource(ctx, "", src)
	if err != nil {
		t.Fatal(err)
	}
	seen := walkResident(t, "whole load", checked(whole))
	if !seen["automata.DFA"] || !seen["check.Report"] {
		t.Fatalf("the walk did not reach the analysis cache: %v", seen)
	}

	s := NewSession()
	edited := strings.Replace(src, "class BadSector:\n", "class BadSector:\n    # an edit\n", 1)
	for _, v := range []string{src, edited} {
		if _, err := s.Recheck(ctx, "", []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.blocks) != len(paperFiles) {
		t.Fatalf("session keeps %d class blocks, want %d", len(s.blocks), len(paperFiles))
	}
	walkResident(t, "session", s)

	var paths []string
	for _, f := range paperFiles {
		paths = append(paths, filepath.Join("testdata", f))
	}
	merged, err := LoadFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	walkResident(t, "merged files", checked(merged))
}

// TestNewDeviceReparsesItsClass: every class re-parses, from the span
// it keeps, to exactly the syntax tree a fresh whole-module parse of its
// source yields — after a whole load, after a session load block by
// block (classes below line 1, LF and CRLF line ends) and after a
// LoadFiles merge — and the paper's Valve drives identically through a
// device of the re-parsed class and one of the fresh tree.
func TestNewDeviceReparsesItsClass(t *testing.T) {
	ctx := context.Background()
	src := "# the paper's case study\n\n" + paperSource(t)

	// assertReparses compares m's classes with the classes of a fresh
	// parse of sources, concatenated in order.
	assertReparses := func(what string, m *Module, sources ...string) {
		t.Helper()
		var want []*pyast.ClassDef
		for _, s := range sources {
			mod, err := pyparse.ParseModule(s)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, mod.Classes...)
		}
		classes := m.Classes()
		if len(classes) != len(want) {
			t.Fatalf("%s: %d classes, want %d", what, len(classes), len(want))
		}
		for i, c := range classes {
			got, err := c.classDef()
			if err != nil {
				t.Fatalf("%s: %s: %v", what, c.Name(), err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s: the re-parsed tree of %s differs from a fresh parse", what, c.Name())
			}
		}
		valve, ok := m.Class("Valve")
		if !ok {
			t.Fatalf("%s: no Valve", what)
		}
		assertValveDrivesLike(t, valve, want[0])
	}

	for _, text := range []string{src, crlf(src)} {
		whole, err := LoadSource(text)
		if err != nil {
			t.Fatal(err)
		}
		assertReparses("whole load", whole, text)

		s := NewSession()
		for _, v := range []string{text, text + "\n"} {
			m, _, err := s.Update(ctx, "", []byte(v))
			if err != nil {
				t.Fatal(err)
			}
			if len(s.blocks) != len(paperFiles) {
				t.Fatalf("session keeps %d class blocks, want %d", len(s.blocks), len(paperFiles))
			}
			if c := m.Classes()[2]; c.line == 1 || len(c.src) >= len(v) {
				t.Fatalf("%s keeps %d bytes from line %d, not its own block", c.Name(), len(c.src), c.line)
			}
			assertReparses("session", m, v)
		}
	}

	var paths, sources []string
	for _, f := range paperFiles {
		p := filepath.Join("testdata", f)
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
		sources = append(sources, string(b))
	}
	merged, err := LoadFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	assertReparses("merged files", merged, sources...)
}

// assertValveDrivesLike drives a device of the class and a device built
// from tree through the same calls under the same sensor readings, and
// requires the same continuations, errors and pin levels at every step.
func assertValveDrivesLike(t *testing.T, valve *Class, tree *pyast.ClassDef) {
	t.Helper()
	gotBoard, wantBoard := NewBoard(), NewBoard()
	got, err := valve.NewDevice(gotBoard)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pyexec.NewObject(tree, pyexec.NewEnv(wantBoard))
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		sensor bool
		op     string
	}{
		{true, "test"}, {true, "open"}, {true, "close"},
		{false, "test"}, {false, "clean"}, {false, "open"},
		{true, "test"}, {false, "open"}, {false, "close"},
	}
	for i, st := range steps {
		gotBoard.SetInput(29, st.sensor)
		wantBoard.SetInput(29, st.sensor)
		gn, _, gerr := got.Call(st.op)
		wn, _, werr := want.Call(st.op)
		if fmt.Sprint(gn, gerr) != fmt.Sprint(wn, werr) {
			t.Fatalf("step %d (%s): device %v, %v; fresh tree %v, %v", i, st.op, gn, gerr, wn, werr)
		}
		if g, w := gotBoard.Snapshot(), wantBoard.Snapshot(); !reflect.DeepEqual(g, w) {
			t.Fatalf("step %d (%s): pins %v, fresh tree %v", i, st.op, g, w)
		}
	}
}

// BenchmarkResidentModules measures what a daemon keeps per resident
// module: it loads residentModules distinct modules into one Cache and
// checks every class, the way a cold check leaves them, and reports the
// growth of the live heap (/gc/heap/live:bytes after runtime.GC) per
// module. Each module is the paper's case study with its own class
// names, so modules share behavior automata, as real modules with
// common bodies do, but no class, protocol or report.
func BenchmarkResidentModules(b *testing.B) {
	const residentModules = 64
	src := paperSource(b)
	sources := make([]string, residentModules)
	for i := range sources {
		s := src
		for _, name := range []string{"Valve", "BadSector", "GoodSector"} {
			s = strings.ReplaceAll(s, name, fmt.Sprintf("%s%d", name, i))
		}
		sources[i] = s
	}
	live := func() uint64 {
		runtime.GC()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	ctx := context.Background()
	var perModule float64
	for i := 0; i < b.N; i++ {
		before := live()
		cache := NewCache()
		modules := make([]*Module, len(sources))
		for j, s := range sources {
			m, err := cache.LoadSource(ctx, "", s)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.CheckAll(); err != nil {
				b.Fatal(err)
			}
			modules[j] = m
		}
		after := live()
		runtime.KeepAlive(modules)
		perModule += (float64(after) - float64(before)) / residentModules
	}
	b.ReportMetric(perModule/float64(b.N), "live-B/module")
}
