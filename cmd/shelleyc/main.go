// Command shelleyc verifies Shelley-annotated MicroPython files: it
// runs the full pipeline (model extraction, invocation analysis,
// subsystem-usage verification, temporal claims) on every class and
// prints the paper-formatted error messages.
//
// Usage:
//
//	shelleyc [-class NAME] [-quiet] [-trace out.json] FILE.py [FILE.py ...]
//	shelleyc -server http://HOST:PORT [-batch] FILE.py [FILE.py ...]
//	shelleyc -incremental [-poll D] [-rounds N] FILE.py
//
// With -server the files are verified by a running shelleyd instead of
// in-process; each file is checked as its own module. Adding -batch
// folds every file into one /v1/check-batch request and prints results
// as the daemon streams them back — the fast path for large file sets
// against a warm daemon.
//
// With -incremental, shelleyc watches one file and re-verifies each
// save against the previous generation through a long-lived session:
// only classes the edit invalidates re-run, everything else is answered
// from the warm pipeline cache, and each round prints what changed,
// what re-verified, and what was reused.
//
// The exit status is 0 when every checked class verifies, 1 when any
// diagnostic is reported, and 2 on usage or load errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	shelley "github.com/shelley-go/shelley"
	"github.com/shelley-go/shelley/client"
	"github.com/shelley-go/shelley/internal/check"
	"github.com/shelley-go/shelley/internal/obs"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shelleyc:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// withBudgetFlags attaches the -max-states / -max-regex resource budget
// to ctx; both zero leaves the context unlimited (historical behavior).
func withBudgetFlags(ctx context.Context, maxStates, maxRegex int) context.Context {
	if maxStates <= 0 && maxRegex <= 0 {
		return ctx
	}
	return shelley.WithBudget(ctx, shelley.Budget{
		MaxNFAStates:   maxStates,
		MaxDFAStates:   maxStates,
		MaxRegexSize:   maxRegex,
		MaxSearchNodes: maxStates,
	})
}

func run(args []string, out io.Writer) (code int, err error) {
	fs := flag.NewFlagSet("shelleyc", flag.ContinueOnError)
	className := fs.String("class", "", "verify only this class")
	quiet := fs.Bool("quiet", false, "suppress OK lines")
	emitNuSMV := fs.Bool("nusmv", false, "print each class's NuSMV model instead of verifying")
	jsonOut := fs.Bool("json", false, "print machine-readable JSON reports")
	precise := fs.Bool("precise", false, "use exit-aware flattening (tighter than the paper's union model)")
	violations := fs.Int("violations", 0, "additionally list up to N invalid usages per subsystem")
	explain := fs.Bool("explain", false, "print a step-by-step explanation for failed claims")
	stats := fs.Bool("stats", false, "print pipeline cache statistics after verification")
	maxStates := fs.Int("max-states", 0, "bound automata states and search nodes per construction (0 = unlimited)")
	maxRegex := fs.Int("max-regex", 0, "bound regex size per construction (0 = unlimited)")
	serverURL := fs.String("server", "", "verify via a running shelleyd at this base URL instead of in-process")
	batch := fs.Bool("batch", false, "with -server: send every file in one /v1/check-batch stream")
	incremental := fs.Bool("incremental", false, "watch one file and incrementally re-verify on change (only edited methods' dependents re-run)")
	pollEvery := fs.Duration("poll", 200*time.Millisecond, "with -incremental: file modification poll period")
	rounds := fs.Int("rounds", 0, "with -incremental: exit after N re-check rounds (0 = run until interrupted)")
	var tr obs.CLIFlags
	tr.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if fs.NArg() == 0 {
		return 2, fmt.Errorf("no input files (usage: shelleyc [-class NAME] FILE.py ...)")
	}
	if *serverURL != "" {
		if *emitNuSMV || *explain || *stats || *violations > 0 {
			return 2, fmt.Errorf("-nusmv, -explain, -stats, and -violations are in-process modes; drop them or drop -server")
		}
		return runRemote(out, *serverURL, *batch, fs.Args(), *className, *precise, *quiet, *jsonOut)
	}
	if *batch {
		return 2, fmt.Errorf("-batch requires -server (in-process verification has no batch wire)")
	}
	if *incremental {
		if *emitNuSMV || *jsonOut || *explain || *violations > 0 || *className != "" {
			return 2, fmt.Errorf("-incremental re-verifies whole files on change; drop -nusmv/-json/-explain/-violations/-class")
		}
		if fs.NArg() != 1 {
			return 2, fmt.Errorf("-incremental watches exactly one file")
		}
		var checkOpts []check.Option
		if *precise {
			checkOpts = append(checkOpts, check.Precise())
		}
		ctx := withBudgetFlags(context.Background(), *maxStates, *maxRegex)
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, syscall.SIGTERM, os.Interrupt)
		return runIncremental(ctx, out, fs.Arg(0), checkOpts, *quiet, *stats, *pollEvery, *rounds, stop)
	}
	ctx := tr.Context(context.Background())
	ctx = withBudgetFlags(ctx, *maxStates, *maxRegex)
	defer func() {
		if ferr := tr.Flush(); ferr != nil && err == nil {
			code, err = 2, fmt.Errorf("writing trace: %w", ferr)
		}
	}()
	// One root span for the whole invocation, so every load and check
	// shares a single trace in the exported file. Ended before the
	// deferred Flush (LIFO).
	ctx, root := obs.Start(ctx, "cli.shelleyc", obs.Int("files", fs.NArg()))
	defer root.End()

	mod, err := shelley.LoadFilesContext(ctx, fs.Args()...)
	if err != nil {
		return 2, err
	}

	classes := mod.Classes()
	if *className != "" {
		c, ok := mod.Class(*className)
		if !ok {
			return 2, fmt.Errorf("class %q not found", *className)
		}
		classes = []*shelley.Class{c}
	}

	if *emitNuSMV {
		for _, c := range classes {
			text, err := c.ExportNuSMV()
			if err != nil {
				return 2, err
			}
			fmt.Fprint(out, text)
		}
		return 0, nil
	}

	var checkOpts []check.Option
	if *precise {
		checkOpts = append(checkOpts, check.Precise())
	}

	failed := false
	var reports []*shelley.Report
	for _, c := range classes {
		report, err := c.CheckContext(ctx, checkOpts...)
		if err != nil {
			return 2, err
		}
		reports = append(reports, report)
		if !report.OK() {
			failed = true
		}
		if *jsonOut {
			continue
		}
		if report.OK() {
			if !*quiet {
				fmt.Fprintf(out, "class %s: OK\n", c.Name())
			}
			continue
		}
		fmt.Fprintf(out, "class %s:\n%s\n", c.Name(), report)
		if *explain {
			for _, d := range report.Diagnostics {
				if d.Explanation != "" {
					fmt.Fprintf(out, "\n%s", d.Explanation)
				}
			}
		}
		if *violations > 0 {
			vs, err := c.UsageViolationsContext(ctx, *violations, checkOpts...)
			if err != nil {
				return 2, err
			}
			for _, v := range vs {
				fmt.Fprintf(out, "invalid usage (subsystem %s): %s\n", v.Subsystem, strings.Join(v.Trace, ", "))
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return 2, err
		}
	}
	if *stats {
		fmt.Fprint(out, mod.PipelineStats())
	}
	if failed {
		return 1, nil
	}
	return 0, nil
}

// runIncremental is the edit-loop mode: one long-lived shelley.Session
// watches a single file, re-checking each saved generation against the
// previous one. Unchanged methods' inferred behaviors, unchanged
// protocols' automata, and unchanged classes' whole reports are reused
// from the session cache, so each round's cost tracks the size of the
// edit, not the size of the file. A save that fails to parse is
// reported and skipped — the session keeps its last good generation and
// the watch continues. The exit status reflects the last completed
// round (0 clean, 1 findings); stop delivers SIGINT/SIGTERM.
func runIncremental(ctx context.Context, out io.Writer, path string, checkOpts []check.Option, quiet, stats bool, pollEvery time.Duration, rounds int, stop <-chan os.Signal) (int, error) {
	sess := shelley.NewSession()
	code := 0
	round := 0
	var lastMod time.Time
	var lastSize int64
	for {
		st, err := os.Stat(path)
		if err != nil {
			return 2, err
		}
		if round == 0 || !st.ModTime().Equal(lastMod) || st.Size() != lastSize {
			lastMod, lastSize = st.ModTime(), st.Size()
			src, err := os.ReadFile(path)
			if err != nil {
				return 2, err
			}
			res, rerr := sess.Recheck(ctx, path, src, checkOpts...)
			if rerr != nil {
				// A half-saved or broken file must not kill the loop: the
				// previous generation stays resident and the next save
				// gets another chance.
				fmt.Fprintf(out, "%s: %v (watch continues)\n", path, rerr)
			} else {
				round++
				code = printRound(out, round, res, quiet, stats)
			}
		}
		if rounds > 0 && round >= rounds {
			return code, nil
		}
		select {
		case <-stop:
			return code, nil
		case <-time.After(pollEvery):
		}
	}
}

// printRound renders one incremental round: failing class reports, a
// one-line summary of what the edit invalidated and what was reused,
// and (with -stats) the round's pipeline-stage delta.
func printRound(out io.Writer, round int, res *shelley.RecheckResult, quiet, stats bool) int {
	code := 0
	for _, rep := range res.Reports {
		if rep.OK() {
			if !quiet {
				fmt.Fprintf(out, "class %s: OK\n", rep.Class)
			}
			continue
		}
		code = 1
		fmt.Fprintf(out, "class %s:\n%s\n", rep.Class, rep)
	}
	summary := "no observable change"
	switch d := res.Diff; {
	case d.Initial:
		summary = "initial load"
	case !d.Clean():
		parts := make([]string, 0, 3)
		if len(d.Changed) > 0 {
			parts = append(parts, "changed "+strings.Join(d.Changed, ","))
		}
		if len(d.Added) > 0 {
			parts = append(parts, "added "+strings.Join(d.Added, ","))
		}
		if len(d.Removed) > 0 {
			parts = append(parts, "removed "+strings.Join(d.Removed, ","))
		}
		summary = strings.Join(parts, "; ")
	}
	fmt.Fprintf(out, "recheck #%d: %s — %d re-verified, %d reused, %s\n",
		round, summary, res.CheckedClasses, res.ReusedReports, res.Elapsed.Round(time.Microsecond))
	if stats {
		fmt.Fprint(out, res.Stats)
	}
	return code
}

// runRemote verifies the files against a running shelleyd: one
// /v1/check per file, or one streamed /v1/check-batch for all of them
// with -batch. Results print in the local format as they arrive, and
// the exit-code contract is unchanged — 0 clean, 1 findings, 2 errors
// (including per-item request errors, which never abort the rest of
// the stream).
func runRemote(out io.Writer, serverURL string, batch bool, files []string, className string, precise, quiet, jsonOut bool) (int, error) {
	cl := client.New(serverURL)
	ctx := context.Background()
	items := make([]client.BatchItem, len(files))
	for i, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return 2, err
		}
		items[i] = client.BatchItem{ID: p, Source: string(b), Class: className, Precise: precise}
	}

	code := 0
	worst := func(c int) {
		if c > code {
			code = c
		}
	}
	var reports []*shelley.Report
	handle := func(file string, resp *client.CheckResponse, status int, errText string) {
		if status != 0 {
			worst(2)
			fmt.Fprintf(out, "%s: error (%d): %s\n", file, status, errText)
			return
		}
		for _, rep := range resp.Reports {
			reports = append(reports, rep)
			if rep.OK() {
				if !quiet && !jsonOut {
					fmt.Fprintf(out, "class %s: OK\n", rep.Class)
				}
				continue
			}
			worst(1)
			if !jsonOut {
				fmt.Fprintf(out, "class %s:\n%s\n", rep.Class, rep)
			}
		}
	}

	if batch {
		stream, err := cl.CheckBatch(ctx, client.BatchRequest{Items: items})
		if err != nil {
			return 2, err
		}
		defer stream.Close()
		for {
			rec, err := stream.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return 2, err
			}
			if rec.Status != http.StatusOK {
				handle(rec.ID, nil, rec.Status, rec.Error)
				continue
			}
			resp, err := rec.CheckResponse()
			if err != nil {
				return 2, err
			}
			handle(rec.ID, resp, 0, "")
		}
		if sum := stream.Summary(); sum != nil && sum.Error != "" {
			return 2, fmt.Errorf("batch incomplete: %s", sum.Error)
		}
	} else {
		for i, it := range items {
			resp, err := cl.Check(ctx, client.CheckRequest{Source: it.Source, Class: it.Class, Precise: it.Precise})
			if err != nil {
				var apiErr *client.APIError
				if errors.As(err, &apiErr) {
					handle(files[i], nil, apiErr.StatusCode, apiErr.Message)
					continue
				}
				return 2, err
			}
			handle(files[i], resp, 0, "")
		}
	}

	if jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return 2, err
		}
	}
	return code, nil
}
