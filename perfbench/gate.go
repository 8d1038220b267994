package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	shelley "github.com/shelley-go/shelley"
	"github.com/shelley-go/shelley/client"
	"github.com/shelley-go/shelley/internal/ltlf"
)

// The correctness gate runs outside the timed window. A wrong verdict
// is any of: a paper known answer the daemon gets wrong, a sampled
// response that is not byte-equal to the uncached library's, or a
// counterexample that does not replay as a violation.

// Known answers of the paper's case study (§2.2): BadSector fails with
// exactly these two errors; Valve and GoodSector verify.
var badSectorErrors = []string{
	"Error in specification: INVALID SUBSYSTEM USAGE\nCounter example: open_a, a.test, a.open\nSubsystems errors:\n  * Valve 'a': test, >open< (not final)",
	"Error in specification: FAIL TO MEET REQUIREMENT\nFormula: (!a.open) W b.open\nCounter example: a.test, a.open",
}

// paperGate asks the live daemon for the paper's verdicts and returns
// the number that are wrong, with a reason for each.
func paperGate(ctx context.Context, cl *client.Client, paper corpus) (int, []string) {
	var wrong int
	var why []string
	for _, tc := range []struct {
		src  string
		want map[string][]string
	}{
		{paper.valve + "\n" + paper.bad, map[string][]string{"Valve": nil, "BadSector": badSectorErrors}},
		{paper.valve + "\n" + paper.good, map[string][]string{"Valve": nil, "GoodSector": nil}},
	} {
		resp, err := cl.Check(ctx, client.CheckRequest{Source: tc.src})
		if err != nil {
			return wrong + 1, append(why, "paper check: "+err.Error())
		}
		// The reports must name exactly the expected classes, each once.
		seen := map[string]bool{}
		for _, rep := range resp.Reports {
			want, ok := tc.want[rep.Class]
			if !ok || seen[rep.Class] {
				wrong++
				why = append(why, fmt.Sprintf("paper check: unexpected report for class %s", rep.Class))
				continue
			}
			seen[rep.Class] = true
			var got []string
			for _, d := range rep.Diagnostics {
				got = append(got, d.Message)
			}
			if strings.Join(got, "\x00") != strings.Join(want, "\x00") {
				wrong++
				why = append(why, fmt.Sprintf("paper class %s: got %q", rep.Class, got))
			}
		}
		for class := range tc.want {
			if !seen[class] {
				wrong++
				why = append(why, fmt.Sprintf("paper check: no report for class %s", class))
			}
		}
	}
	return wrong, why
}

// sampleGate recomputes every sampled response with the uncached
// library under the daemon's budget, compares bytes, and replays every
// counterexample.
func sampleGate(records []record) (int, []string) {
	ctx := shelley.WithBudget(context.Background(), shelley.DefaultBudget())
	var wrong int
	var why []string
	for i, r := range records {
		mod, err := shelley.LoadSource(r.source)
		if err != nil {
			wrong++
			why = append(why, fmt.Sprintf("sample %d: reference load: %v", i, err))
			continue
		}
		mod.SetPipelineCaching(false)
		reports, err := reference(ctx, mod, r.req)
		if err != nil {
			wrong++
			why = append(why, fmt.Sprintf("sample %d: reference check: %v", i, err))
			continue
		}
		var want []byte
		if r.watch {
			want = encode(reports)
		} else {
			ok := true
			for _, rep := range reports {
				ok = ok && rep.OK()
			}
			want = encode(client.CheckResponse{Fingerprint: client.Fingerprint(r.source), OK: ok, Reports: reports})
		}
		if !bytes.Equal(want, r.body) {
			wrong++
			why = append(why, fmt.Sprintf("sample %d: response differs from the uncached library", i))
		}
		for _, rep := range reports {
			if msg := replay(mod, rep); msg != "" {
				wrong++
				why = append(why, fmt.Sprintf("sample %d: %s", i, msg))
			}
		}
	}
	return wrong, why
}

// reference computes what the daemon should answer for req.
func reference(ctx context.Context, mod *shelley.Module, req client.CheckRequest) ([]*shelley.Report, error) {
	var opts []shelley.Option
	if req.Precise {
		opts = append(opts, shelley.Precise())
	}
	if req.Class != "" {
		cls, ok := mod.Class(req.Class)
		if !ok {
			return nil, fmt.Errorf("no class %s", req.Class)
		}
		rep, err := cls.CheckContext(ctx, opts...)
		return []*shelley.Report{rep}, err
	}
	if !req.Precise {
		return mod.CheckAllContext(ctx, 1)
	}
	var out []*shelley.Report
	for _, cls := range mod.Classes() {
		rep, err := cls.CheckContext(ctx, opts...)
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// replay checks a report's counterexamples against the independent
// interpreter: a usage counterexample must fail Class.ReplayFlat, and a
// claim counterexample must falsify its formula.
func replay(mod *shelley.Module, rep *shelley.Report) string {
	cls, ok := mod.Class(rep.Class)
	if !ok {
		return "report names unknown class " + rep.Class
	}
	for _, d := range rep.Diagnostics {
		switch d.Kind {
		case shelley.KindInvalidSubsystemUsage:
			if cls.ReplayFlat(d.Counterexample) == nil {
				return fmt.Sprintf("%s: usage counterexample %v replays cleanly", rep.Class, d.Counterexample)
			}
		case shelley.KindClaimFailure:
			_, rest, _ := strings.Cut(d.Message, "Formula: ")
			text, _, _ := strings.Cut(rest, "\n")
			f, err := ltlf.Parse(text)
			if err != nil {
				return fmt.Sprintf("%s: claim %q: %v", rep.Class, text, err)
			}
			if ltlf.Eval(f, d.Counterexample) {
				return fmt.Sprintf("%s: claim counterexample %v satisfies %q", rep.Class, d.Counterexample, text)
			}
		}
	}
	return ""
}
