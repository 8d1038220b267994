// Command perfbench is the repository's benchmark. It drives a live
// shelleyd subprocess through the client package with one of three
// workloads, checks every verdict it samples against the uncached
// library, and prints one JSON result line. With -trace 1 it also
// replays the workload's inputs in-process, layer by layer, and reports
// per-layer self times, counts and hit ratios, plus how much of the
// end-to-end latency the layers account for.
//
// Usage (from the repository root, after building shelleyd into
// .bench_build; perfbench/run.sh does both):
//
//	perfbench -workload cold-check|warm-hit|edit-loop -seed N -seconds S -trace 0|1
//	perfbench -compare OLD_DIR NEW_DIR
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/shelley-go/shelley/client"
)

// setupRuns is the number of daemon set-ups per run; setup_s is their
// median.
const setupRuns = 9

// rssMark is the number of completed requests (rounds on edit-loop)
// after which a closed-loop run reads the daemon's peak RSS. Edit-loop's
// memory grows with every round, so a reading at the end of the window
// would follow throughput; a reading at a fixed count does not. The
// slowest edit-loop run seen (about 600 rounds/s) reaches it in 3.5
// seconds.
const rssMark = 2048

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	daemon   string
	out      string
}

func main() {
	// The load generator's own collections would delay its sends and
	// receives; its heap is small, so a larger GC target costs little.
	debug.SetGCPercent(800)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds (with -trace 1, half load and half replay)")
	fs.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics from a traced in-process replay")
	fs.StringVar(&o.daemon, "daemon", filepath.Join(".bench_build", "shelleyd"), "shelleyd binary")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench-out"), "directory for result and span files")
	compare := fs.Bool("compare", false, "compare two result directories: -compare OLD NEW")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	res, err := bench(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func bench(o options, log io.Writer) (*result, error) {
	if !contains(workloadNames, o.workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if o.trace != 0 && o.trace != 1 || o.seconds <= 0 {
		return nil, errors.New("need -trace 0|1 and -seconds > 0")
	}
	paper, err := loadCorpus("testdata")
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(o.daemon); err != nil {
		return nil, fmt.Errorf("daemon binary: %w", err)
	}
	in := newInputs(o.workload, o.seed, paper)
	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 1 {
		window /= 2
	}
	ctx := context.Background()

	// Set-up: exec → ready → workload primed, several times; the last
	// daemon serves the timed window.
	var setups []float64
	var d *daemon
	var ems [][]*editModule
	for k := 0; k < setupRuns; k++ {
		start := time.Now()
		dk, err := startDaemon(ctx, o.daemon)
		if err != nil {
			return nil, err
		}
		if ems, err = prime(ctx, dk.cl, in); err != nil {
			dk.kill()
			return nil, fmt.Errorf("priming: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if k < setupRuns-1 {
			if err := dk.stop(); err != nil {
				return nil, err
			}
		} else {
			d = dk
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()

	before, err := d.scrape(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	var rss float64
	var rssErr error
	rssAt := 0
	atMark := func() { rss, rssErr = d.peakRSSMB(); rssAt = rssMark }
	var load *loadResult
	switch o.workload {
	case "cold-check":
		load = coldCheck(ctx, d.cl, in, window, atMark)
	case "warm-hit":
		load = warmHit(ctx, d.cl, in, window)
	case "edit-loop":
		load = editLoop(ctx, d.cl, in, ems, window, atMark)
	}
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	// Warm-hit's open loop sends a fixed number of requests, so its
	// reading is taken at the end; so is that of a run too slow to reach
	// the mark, which the result file shows as rss_at_requests 0.
	rssEnd, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}
	if rssAt == 0 {
		rss = rssEnd
	}
	after, err := d.scrape(ctx)
	if err != nil {
		return nil, err
	}
	paperWrong, paperWhy := paperGate(ctx, d.cl, paper)
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}
	if load.attempted == 0 {
		return nil, errors.New("no request attempted in the window")
	}
	for _, e := range load.errs {
		fmt.Fprintln(log, "perfbench: request error:", e)
	}
	sampleWrong, sampleWhy := sampleGate(load.records)
	for _, w := range append(paperWhy, sampleWhy...) {
		fmt.Fprintln(log, "perfbench: wrong verdict:", w)
	}
	if load.offSchedule > 0 {
		fmt.Fprintf(log, "perfbench: %d watch rounds re-checked other classes than the edit schedule implies\n", load.offSchedule)
	}
	wrong := paperWrong + sampleWrong + load.offSchedule

	// The tail figure is p95, not p99: on warm-hit about 1-2% of
	// requests overlap a daemon GC mark phase, so p99 sits on that edge
	// and moved by 30% between runs. The result file keeps p99 and p99.9.
	completed := load.attempted - load.failed
	p50 := percentile(load.lats, 0.50)
	e2e := map[string]metric{
		"throughput_rps":        {float64(completed) / load.elapsed.Seconds(), "1/s"},
		"latency_p50_us":        {us(p50), "us"},
		"latency_p95_us":        {us(percentile(load.lats, 0.95)), "us"},
		"setup_s":               {median(append([]float64(nil), setups...)), "s"},
		"peak_rss_mb":           {rss, "MB"},
		"server_cpu_us_per_req": {ratio(us(cpu1-cpu0), float64(completed)), "us"},
	}
	res := &result{
		Correct:   wrong == 0 && load.failed == 0,
		Attempted: load.attempted,
		Failed:    load.failed,
		Metrics:   e2e,
	}
	record := map[string]any{
		"stamp":      stamp(o, load),
		"setups_s":   setups,
		"end_to_end": e2e,
		"checks": map[string]any{
			"attempted": load.attempted, "failed": load.failed,
			"error_ratio":    ratio(float64(load.failed), float64(load.attempted)),
			"wrong_verdicts": wrong, "sampled_responses": len(load.records),
			"latency_samples":      len(load.lats),
			"latency_quantiles_us": quantilesUS(load.lats), "late_quantiles_us": quantilesUS(load.lates),
			"completed_per_second": perSecond(load.ats),
		},
		"rss": map[string]any{"peak_rss_mb": rss, "rss_at_requests": rssAt, "peak_rss_end_mb": rssEnd},
	}
	if o.workload == "edit-loop" {
		record["rounds"] = map[string]any{
			"rounds": load.rounds, "off_schedule": load.offSchedule,
			"checked_per_round": ratio(float64(load.checked), float64(load.rounds)),
			"reused_per_round":  ratio(float64(load.reused), float64(load.rounds)),
		}
	}
	if o.trace == 1 {
		window := time.Duration(o.seconds * float64(time.Second) / 2)
		layers, extra, err := perLayer(o, in, load, after.sub(before), p50, window, log)
		if err != nil {
			return nil, err
		}
		res.Metrics = layers
		record["per_layer"] = layers
		if o.workload == "edit-loop" && rssAt > 0 {
			// How much of the peak the session heap slope accounts for
			// over the rounds before the reading.
			extra["rss.session_growth_mb"] = layers["session.heap_kb_per_round"].Value * rssMark / 1024
		}
		record["trace"] = extra
		if untraced, err := readE2E(resultPath(o.out, o.workload, o.seed, 0)); err == nil {
			record["trace_overhead"] = overhead(untraced, e2e)
		}
	}
	if err := writeJSON(resultPath(o.out, o.workload, o.seed, o.trace), map[string]any{
		"workload": o.workload, "seed": o.seed, "trace": o.trace, "result": res, "record": record,
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// prime makes the workload's steady state resident on a fresh daemon:
// 32 never-seen modules for cold-check, every warm-hit key, and each
// watch session's first generation for edit-loop (whose modules it
// returns, by worker).
func prime(ctx context.Context, cl *client.Client, in *inputs) ([][]*editModule, error) {
	switch in.workload {
	case "cold-check":
		// 32 checks warm the daemon's heap and code paths; with 8, set-up
		// was mostly process start and moved by 25% between sets of runs.
		for k := 0; k < 32; k++ {
			src := in.bodies[len(in.bodies)-1-k].source + fmt.Sprintf("# prime %d-%d\n", in.seed, k)
			if _, err := cl.Check(ctx, client.CheckRequest{Source: src}); err != nil {
				return nil, err
			}
		}
	case "warm-hit":
		for m := range in.bodies {
			for _, class := range []bool{false, true} {
				for _, precise := range []bool{false, true} {
					req := in.checkRequest(warmReq{mod: m, class: class, precise: precise})
					if _, err := cl.Check(ctx, req); err != nil {
						return nil, err
					}
				}
			}
		}
	case "edit-loop":
		ems := make([][]*editModule, workers)
		for w := range ems {
			for s := 0; s < editSessions; s++ {
				em := in.editModule(w, s)
				if _, err := cl.WatchPush(ctx, client.WatchRequest{Session: sessionName(in.seed, w, s), Source: em.source()}); err != nil {
					return nil, err
				}
				ems[w] = append(ems[w], em)
			}
		}
		return ems, nil
	}
	return nil, nil
}

func resultPath(out, workload string, seed int64, trace int) string {
	return filepath.Join(out, "results", fmt.Sprintf("%s.seed%d.trace%d.json", workload, seed, trace))
}

// readE2E reads the end-to-end figures of an earlier run's result file.
func readE2E(path string) (map[string]metric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, err
	}
	return rf.Record.EndToEnd, nil
}

// overhead is the tracing overhead a traced run shows: the relative
// difference of each end-to-end figure of its load phase from the
// untraced run of the same workload and seed.
func overhead(untraced, traced map[string]metric) map[string]float64 {
	out := map[string]float64{}
	for name, u := range untraced {
		if t, ok := traced[name]; ok && u.Value != 0 {
			out[name] = (t.Value - u.Value) / u.Value
		}
	}
	return out
}

// stamp identifies what produced a result.
func stamp(o options, load *loadResult) map[string]any {
	sha, dirty := gitState()
	s := map[string]any{
		"git_sha": sha, "git_dirty": dirty, "go_version": runtime.Version(),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"daemon_flags": daemonFlags, "workload": o.workload, "seed": o.seed,
		"seconds": o.seconds, "trace": o.trace, "setups": setupRuns,
		"load_workers": workers, "generator": genParams(),
		"window_s": load.elapsed.Seconds(),
	}
	if o.workload == "warm-hit" {
		s["offered_rps"] = offeredRPS
	}
	return s
}

// gitState reports the checkout's commit and whether it has local
// changes; a checkout without git metadata reports "unknown".
func gitState() (string, any) {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown", "unknown"
	}
	sha, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", "unknown"
	}
	status, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
	if err != nil {
		return strings.TrimSpace(string(sha)), "unknown"
	}
	return strings.TrimSpace(string(sha)), len(status) > 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}
