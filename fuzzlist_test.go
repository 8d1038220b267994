package shelley

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestFuzzTargetsListed keeps the Makefile's FUZZ_TARGETS, which `make
// fuzz` and CI run, equal to the set of Fuzz functions in the
// repository's test files (dot-directories and testdata skipped).
func TestFuzzTargetsListed(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^FUZZ_TARGETS =((?:.*\\\n)*.*)$`).FindSubmatch(mk)
	if m == nil {
		t.Fatal("Makefile has no FUZZ_TARGETS list")
	}
	listed := map[string]bool{}
	for _, f := range strings.Fields(strings.ReplaceAll(string(m[1]), "\\", "")) {
		listed[f] = true
	}

	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w*)\(\w+ \*testing\.F\)`)
	found := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := "."
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg = "./" + dir
		}
		for _, fm := range fuzzFunc.FindAllSubmatch(src, -1) {
			found[pkg+":"+string(fm[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var missing, stale []string
	for f := range found {
		if !listed[f] {
			missing = append(missing, f)
		}
	}
	for f := range listed {
		if !found[f] {
			stale = append(stale, f)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, f := range missing {
		t.Errorf("fuzz target %s is not in the Makefile's FUZZ_TARGETS", f)
	}
	for _, f := range stale {
		t.Errorf("FUZZ_TARGETS lists %s, which no test file declares", f)
	}
	if len(found) == 0 {
		t.Error("no fuzz targets found")
	}
}
