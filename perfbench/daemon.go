package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/shelley-go/shelley/client"
	"github.com/shelley-go/shelley/internal/pipeline"
)

// daemonFlags are the flags every benchmark daemon runs with: the
// production defaults plus no access log, watch sessions on, and a
// free port.
var daemonFlags = []string{"-addr", "127.0.0.1:0", "-quiet", "-watch"}

// daemon is one shelleyd subprocess.
type daemon struct {
	cmd    *exec.Cmd
	cl     *client.Client
	base   string
	outEOF chan struct{} // closed once the daemon's stdout is drained
}

// newHTTPClient returns the load generator's transport: two
// connections to the daemon, no proxy, kept alive between requests.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		IdleConnTimeout:     time.Minute,
	}}
}

// startDaemon execs bin, reads the bound address from its "listening"
// line, and waits until /healthz answers.
func startDaemon(ctx context.Context, bin string) (*daemon, error) {
	cmd := exec.Command(bin, daemonFlags...)
	cmd.Stderr = os.Stderr
	// The daemon dies with the benchmark, even when the benchmark is
	// killed before it can stop the daemon itself.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, outEOF: make(chan struct{})}
	lines := make(chan string, 1)
	const prefix = "shelleyd listening on "
	go func() {
		defer close(d.outEOF)
		br := bufio.NewReader(stdout)
		for {
			line, err := br.ReadString('\n')
			if strings.HasPrefix(line, prefix) || err != nil {
				lines <- line
				break
			}
		}
		_, _ = io.Copy(io.Discard, br)
	}()
	select {
	case line := <-lines:
		if !strings.HasPrefix(line, prefix) {
			d.kill()
			return nil, fmt.Errorf("daemon exited before listening (last output %q)", line)
		}
		d.base = strings.TrimSpace(strings.TrimPrefix(line, prefix))
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("daemon printed no address within 30s")
	}
	d.cl = client.New(d.base, client.WithHTTPClient(newHTTPClient()))
	if err := d.cl.WaitReady(ctx, 30*time.Second); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// stop sends SIGTERM and waits for the drain; a daemon still running
// after 30s is killed.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.outEOF:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.outEOF
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("daemon exit: %w", err)
	}
	return nil
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.outEOF
	_ = d.cmd.Wait()
}

// cpuTime returns the daemon's user+system CPU time from
// /proc/<pid>/stat (clock ticks of 10ms, Linux's fixed USER_HZ).
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// peakRSSMB returns the daemon's VmHWM in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// scrape is the subset of /metrics the benchmark reads, taken only
// before and after the timed window: rendering /metrics walks every
// resident module, so scraping mid-run would perturb the run.
type scrape struct {
	bodyHits, moduleHits, moduleMisses, evictions, coalesced float64
	stageHits, stageMisses                                   [pipeline.NumStages]float64
}

func (d *daemon) scrape(ctx context.Context) (scrape, error) {
	text, err := d.cl.Metrics(ctx)
	if err != nil {
		return scrape{}, err
	}
	get := func(name string) float64 {
		v, _ := client.ParseMetric(text, name)
		return v
	}
	s := scrape{
		bodyHits:     get("shelleyd_check_body_cache_hits_total"),
		moduleHits:   get("shelleyd_module_cache_hits_total"),
		moduleMisses: get("shelleyd_module_cache_misses_total"),
		evictions:    get("shelleyd_module_cache_evictions_total"),
		coalesced:    get("shelleyd_coalesced_total"),
	}
	for i := range s.stageHits {
		st := pipeline.Stage(i).String()
		s.stageHits[i] = get(fmt.Sprintf(`shelleyd_pipeline_stage_total{stage=%q,kind="hits"}`, st))
		s.stageMisses[i] = get(fmt.Sprintf(`shelleyd_pipeline_stage_total{stage=%q,kind="misses"}`, st))
	}
	return s, nil
}

func (s scrape) sub(o scrape) scrape {
	d := scrape{
		bodyHits:     s.bodyHits - o.bodyHits,
		moduleHits:   s.moduleHits - o.moduleHits,
		moduleMisses: s.moduleMisses - o.moduleMisses,
		evictions:    s.evictions - o.evictions,
		coalesced:    s.coalesced - o.coalesced,
	}
	for i := range s.stageHits {
		d.stageHits[i] = s.stageHits[i] - o.stageHits[i]
		d.stageMisses[i] = s.stageMisses[i] - o.stageMisses[i]
	}
	return d
}

func (s scrape) pipelineMisses() float64 {
	var n float64
	for _, m := range s.stageMisses {
		n += m
	}
	return n
}
