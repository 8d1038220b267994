// Command shelleytop is a terminal monitor for a running shelleyd: it
// polls GET /v1/status and renders a live top-style view — per-endpoint
// rolling rates, error ratios and latency percentiles, pool and queue
// gauges, SLO budgets, firing alerts (drift flips included), and the
// most recent tail-sampled exemplars.
//
// Usage:
//
//	shelleytop [-addr URL] [-interval D] [-n N]
//	shelleytop -once
//
// The daemon must run with telemetry enabled (shelleyd's default;
// -telemetry-interval 0 turns it off). -once prints a single frame and
// exits, which is what scripts and smoke tests want; otherwise the
// screen refreshes every -interval until SIGINT.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/shelley-go/shelley/client"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	code, err := run(os.Args[1:], os.Stdout, sig)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shelleytop:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run is the testable body of main; sig ends the polling loop.
func run(args []string, out io.Writer, sig <-chan os.Signal) (int, error) {
	fs := flag.NewFlagSet("shelleytop", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:9944", "shelleyd base URL")
	interval := fs.Duration("interval", 2*time.Second, "refresh period")
	once := fs.Bool("once", false, "print one frame and exit (no screen clearing)")
	n := fs.Int("n", 5, "exemplar rows to show")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if fs.NArg() != 0 {
		return 2, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	cl := client.New(base)
	ctx := context.Background()

	if *once {
		resp, err := cl.Status(ctx)
		if err != nil {
			return 1, err
		}
		render(out, base, resp, *n)
		return 0, nil
	}

	t := time.NewTicker(*interval)
	defer t.Stop()
	for {
		resp, err := cl.Status(ctx)
		// ANSI clear + home: repaint in place like top does. Stale data
		// is worse than a visible error, so fetch failures paint too.
		fmt.Fprint(out, "\x1b[2J\x1b[H")
		if err != nil {
			fmt.Fprintf(out, "shelleytop: %s: %v\n", base, err)
		} else {
			render(out, base, resp, *n)
		}
		select {
		case <-sig:
			return 0, nil
		case <-t.C:
		}
	}
}

// render paints one frame of the fleet view.
func render(out io.Writer, base string, r *client.StatusResponse, exRows int) {
	drain := ""
	if r.Draining {
		drain = " · DRAINING"
	}
	fmt.Fprintf(out, "shelleyd %s · up %s · tick %s%s\n\n",
		base, (time.Duration(r.UptimeSec) * time.Second).String(), r.Interval, drain)

	if len(r.Alerts) > 0 {
		for _, a := range r.Alerts {
			fmt.Fprintf(out, "ALERT [%s] %s — %s (since %s)\n",
				strings.ToUpper(a.Severity), a.Key, a.Message, a.Since.Format("15:04:05"))
			if len(a.Counterexample) > 0 {
				fmt.Fprintf(out, "      counterexample: %s\n", strings.Join(a.Counterexample, " "))
			}
		}
		fmt.Fprintln(out)
	}

	fmt.Fprintf(out, "%-14s %-4s %9s %7s %9s %9s %9s %9s\n",
		"ENDPOINT", "WIN", "RATE/S", "ERR%", "P50", "P95", "P99", "TOTAL")
	for _, ep := range r.Endpoints {
		for _, win := range []string{"10s", "1m"} {
			w, ok := ep.Windows[win]
			if !ok {
				continue
			}
			fmt.Fprintf(out, "%-14s %-4s %9.1f %7.2f %9s %9s %9s %9d\n",
				ep.Endpoint, win, w.Rate, w.ErrorRate*100,
				fmtDur(w.P50), fmtDur(w.P95), fmtDur(w.P99), w.Total)
		}
	}

	if len(r.SLOs) > 0 {
		fmt.Fprintf(out, "\n%-24s %9s %9s %9s %9s %9s  %s\n",
			"SLO", "TARGET", "BAD%", "BURN5M", "BURN1H", "BUDGET", "STATE")
		for _, s := range r.SLOs {
			target := fmt.Sprintf("%g%%", s.Target*100)
			if s.Latency > 0 {
				target += "<" + fmtDur(s.Latency)
			}
			state := "ok"
			if s.Firing != "" {
				state = strings.ToUpper(s.Firing)
			}
			fmt.Fprintf(out, "%-24s %9s %9.3f %9.1f %9.1f %8.1f%%  %s\n",
				s.Name, target, s.BadFrac*100, s.BurnFast, s.BurnSlow, s.BudgetRemaining*100, state)
		}
	}

	names := make([]string, 0, len(r.Gauges))
	for name := range r.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	var gauges []string
	for _, name := range names {
		switch name {
		case "shelleyd_queue_depth", "shelleyd_workers_busy", "shelleyd_inflight_requests",
			"shelleyd_jobs_active", "shelleyd_batch_inflight_items":
			gauges = append(gauges, fmt.Sprintf("%s=%.0f", strings.TrimPrefix(name, "shelleyd_"), r.Gauges[name]))
		}
	}
	if len(gauges) > 0 {
		fmt.Fprintf(out, "\npool: %s\n", strings.Join(gauges, "  "))
	}

	if len(r.Exemplars) > 0 {
		fmt.Fprintf(out, "\n%-8s %-14s %5s %9s  %s\n", "WHY", "ENDPOINT", "CODE", "TOOK", "TRACE")
		for i, x := range r.Exemplars {
			if i >= exRows {
				fmt.Fprintf(out, "… %d more\n", len(r.Exemplars)-exRows)
				break
			}
			fmt.Fprintf(out, "%-8s %-14s %5d %9s  %s (%d spans)\n",
				x.Reason, x.Endpoint, x.Code, fmtDur(x.Duration), x.TraceID, len(x.Spans))
		}
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d <= 0:
		return "-"
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/1e6)
	default:
		return fmt.Sprintf("%.2fs", float64(d)/1e9)
	}
}
