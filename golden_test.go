package shelley

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/shelley-go/shelley/internal/ltlf"
)

// Golden-file tests pin the exact rendered artifacts (DOT diagrams and
// NuSMV exports) for the paper's classes. Regenerate with:
//
//	go test -run TestGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files")

func assertGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden file (run with -update if intended):\n--- got ---\n%s\n--- want ---\n%s",
			name, got, string(want))
	}
}

func TestGoldenArtifacts(t *testing.T) {
	m := loadPaper(t)
	valve, _ := m.Class("Valve")
	bad, _ := m.Class("BadSector")

	assertGolden(t, "valve_protocol.dot", valve.ProtocolDiagram())

	dep, err := valve.DependencyDiagram()
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "valve_deps.dot", dep)

	assertGolden(t, "badsector_protocol.dot", bad.ProtocolDiagram())

	smv, err := valve.ExportNuSMV()
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "valve.smv", smv)

	smv, err = bad.ExportNuSMV()
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "badsector.smv", smv)

	report, err := bad.Check()
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "badsector_report.txt", report.String()+"\n")
}

func TestGoldenSmartHomeArtifacts(t *testing.T) {
	m := loadSmartHome(t)
	thermo, _ := m.Class("Thermostat")

	assertGolden(t, "thermostat_protocol.dot", thermo.ProtocolDiagram())

	smv, err := thermo.ExportNuSMV()
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "thermostat.smv", smv)

	regexSrc, err := thermo.ProtocolRegex()
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "thermostat_protocol.regex", regexSrc+"\n")
}

func TestGoldenSectorDeps(t *testing.T) {
	m, err := LoadFile("testdata/sector.py")
	if err != nil {
		t.Fatal(err)
	}
	sector, _ := m.Class("Sector")
	dep, err := sector.DependencyDiagram()
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "sector_deps.dot", dep)
}

// TestExportNuSMVReportsMalformedClaim: a claim that does not parse
// fails the export with the claim's text and the parser's error.
func TestExportNuSMVReportsMalformedClaim(t *testing.T) {
	m, err := LoadSource(`
@sys
class Lamp:
    @op_initial_final
    def on(self):
        return ["on"]

@sys(["l"])
@claim("((")
class Room:
    def __init__(self):
        self.l = Lamp()

    @op_initial_final
    def light(self):
        self.l.on()
        return ["light"]
`)
	if err != nil {
		t.Fatal(err)
	}
	room, _ := m.Class("Room")
	_, err = room.ExportNuSMV()
	_, perr := ltlf.Parse("((")
	if err == nil || perr == nil || err.Error() != `nusmv: claim "((": `+perr.Error() {
		t.Fatalf("ExportNuSMV error = %v, want nusmv: claim \"((\": %v", err, perr)
	}
}

// TestExportNuSMVParsesClaimsOnce: the export reads the formulas the
// model memoized, so after the first export a claim's text is not read
// again (here it is overwritten with a malformed one).
func TestExportNuSMVParsesClaimsOnce(t *testing.T) {
	m := loadPaper(t)
	bad, _ := m.Class("BadSector")
	first, err := bad.ExportNuSMV()
	if err != nil {
		t.Fatal(err)
	}
	for i := range bad.model.Claims {
		bad.model.Claims[i].Formula = "(("
	}
	second, err := bad.ExportNuSMV()
	if err != nil || second != first {
		t.Fatalf("second export = %v, differs from the first: %v", err, second != first)
	}
}
