package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/shelley-go/shelley/client"
)

// workers is the load generator's concurrency: at most one goroutine
// per core of the 2-core reference machine, each over its own
// connection.
const workers = 2

// offeredRPS is warm-hit's open-loop rate. The closed-loop warm
// capacity (2 clients) of a 2-vCPU VM measured 4000 to 7200 req/s
// depending on host load; 1300 is a third of the lower figure.
const offeredRPS = 1300

// warmMix is the length of warm-hit's precomputed request sequence;
// request i uses entry i mod warmMix.
const warmMix = 1 << 14

// gateSamples is how many responses of each request kind the load
// generator keeps for the correctness gate.
const gateSamples = 4

var workloadNames = []string{"cold-check", "warm-hit", "edit-loop"}

// warmReq is one warm-hit request: a resident module and one of eight
// kinds (fingerprint-only or by-source, whole module or one class,
// union or precise).
type warmReq struct {
	mod                    int
	fpOnly, class, precise bool
}

func (r warmReq) kind() int {
	k := 0
	for _, b := range []bool{r.fpOnly, r.class, r.precise} {
		k <<= 1
		if b {
			k |= 1
		}
	}
	return k
}

// inputs are the generated inputs of one workload and seed.
type inputs struct {
	workload string
	seed     int64
	bodies   []module  // cold-check bodies, or warm-hit's resident modules
	warm     []warmReq // warm-hit's request sequence
	fps      []string  // warm-hit module fingerprints
}

func newInputs(workload string, seed int64, paper corpus) *inputs {
	in := &inputs{workload: workload, seed: seed}
	g := newGenerator(seed, paper)
	switch workload {
	case "cold-check":
		for i := 0; i < coldDistinct; i++ {
			in.bodies = append(in.bodies, g.module())
		}
	case "warm-hit":
		for i := 0; i < warmModules; i++ {
			m := g.module()
			m.source += fmt.Sprintf("# resident %d-%d\n", seed, i)
			in.bodies = append(in.bodies, m)
			in.fps = append(in.fps, client.Fingerprint(m.source))
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < warmMix; i++ {
			in.warm = append(in.warm, warmReq{
				mod: rng.Intn(warmModules), fpOnly: rng.Float64() < fpOnlyShare,
				class: rng.Float64() < classShare, precise: rng.Float64() < preciseShare,
			})
		}
	}
	return in
}

// editModule builds the module of worker w's session s.
func (in *inputs) editModule(w, s int) *editModule {
	idx := w*editSessions + s
	return newEditModule(in.seed*workers*editSessions+int64(idx)+1, idx)
}

// checkRequest is warm-hit request r as sent on the wire.
func (in *inputs) checkRequest(r warmReq) client.CheckRequest {
	m := in.bodies[r.mod]
	req := client.CheckRequest{Source: m.source, Precise: r.precise}
	if r.fpOnly {
		req = client.CheckRequest{Fingerprint: in.fps[r.mod], Precise: r.precise}
	}
	if r.class {
		req.Class = m.focus
	}
	return req
}

// record is one response kept for the correctness gate.
type record struct {
	source string // the module source the response is about
	req    client.CheckRequest
	body   []byte // the decoded response, re-encoded
	watch  bool   // body is a watch round's report list
}

// workerLoad is what one load-generator worker measured.
type workerLoad struct {
	attempted, failed int
	lats, lates       []time.Duration
	ats               []time.Duration // each latency sample's send time, from the window start
	records           []record
	errs              []string

	// edit-loop round accounting: offSchedule counts rounds whose
	// re-check counts differ from the edit schedule's.
	rounds, checked, reused, offSchedule int
}

func (w *workerLoad) fail(err error) {
	w.failed++
	if len(w.errs) < 5 {
		w.errs = append(w.errs, err.Error())
	}
}

// loadResult is what one timed window measured: its workers' figures
// merged.
type loadResult struct {
	workerLoad
	elapsed time.Duration
}

func merge(ws []*workerLoad, elapsed time.Duration) *loadResult {
	r := &loadResult{elapsed: elapsed}
	for _, w := range ws {
		r.attempted += w.attempted
		r.failed += w.failed
		r.lats = append(r.lats, w.lats...)
		r.lates = append(r.lates, w.lates...)
		r.ats = append(r.ats, w.ats...)
		r.records = append(r.records, w.records...)
		r.errs = append(r.errs, w.errs...)
		r.rounds += w.rounds
		r.checked += w.checked
		r.reused += w.reused
		r.offSchedule += w.offSchedule
	}
	return r
}

// requestTimeout bounds one request; a request that times out counts
// as failed.
const requestTimeout = 10 * time.Second

// coldCheck runs the closed loop of cold-check: each worker sends the
// next never-seen module as soon as its previous request completes.
func coldCheck(ctx context.Context, cl *client.Client, in *inputs, window time.Duration, atMark func()) *loadResult {
	var next atomic.Int64
	return closedLoop(window, atMark, func(w *workerLoad, _ int) bool {
		i := int(next.Add(1) - 1)
		src := coldSource(in.bodies, in.seed, i)
		rctx, cancel := context.WithTimeout(ctx, requestTimeout)
		resp, err := cl.Check(rctx, client.CheckRequest{Source: src})
		cancel()
		w.attempted++
		if err != nil {
			w.fail(err)
			return false
		}
		if i%7 == 0 && len(w.records) < 3*gateSamples {
			w.records = append(w.records, record{source: src, req: client.CheckRequest{Source: src}, body: encode(resp)})
		}
		return true
	})
}

// closedLoop runs step on every worker until the window closes and
// times each step that reports success. A step's lateness is the gap between the previous
// step's completion and this one's send: the generator's own overhead.
// The worker that completes the rssMark-th successful step runs atMark.
func closedLoop(window time.Duration, atMark func(), step func(w *workerLoad, worker int) bool) *loadResult {
	ws := make([]*workerLoad, workers)
	start := time.Now()
	deadline := start.Add(window)
	var completed atomic.Int64
	var wg sync.WaitGroup
	for k := range ws {
		ws[k] = &workerLoad{}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			w := ws[k]
			prev := time.Now()
			for time.Now().Before(deadline) {
				sent := time.Now()
				ok := step(w, k)
				done := time.Now()
				if ok {
					w.lats = append(w.lats, done.Sub(sent))
					w.lates = append(w.lates, sent.Sub(prev))
					w.ats = append(w.ats, sent.Sub(start))
					if completed.Add(1) == rssMark {
						atMark()
					}
				}
				prev = done
			}
		}(k)
	}
	wg.Wait()
	return merge(ws, time.Since(start))
}

// warmHit runs warm-hit's open loop: request i is due at i/rate after
// the start, whether or not earlier requests have completed.
// Latency counts from the due time, so a stall also charges the wait it
// imposes on the requests behind it.
func warmHit(ctx context.Context, cl *client.Client, in *inputs, window time.Duration) *loadResult {
	sampled := make(map[int]bool)
	seen := make(map[int]int)
	for i, r := range in.warm {
		if seen[r.kind()] < gateSamples {
			seen[r.kind()]++
			sampled[i] = true
		}
	}
	ws := make([]*workerLoad, workers)
	start := time.Now().Add(time.Millisecond)
	interval := float64(time.Second) / offeredRPS
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := range ws {
		ws[k] = &workerLoad{}
		wg.Add(1)
		go func(w *workerLoad) {
			defer wg.Done()
			// Pacing sleeps in nanosleep on a locked thread with 1ns timer
			// slack: the runtime's own timers round sub-millisecond
			// sleeps up to a millisecond.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
			for {
				i := int(next.Add(1) - 1)
				due := start.Add(time.Duration(float64(i) * interval))
				if due.Sub(start) >= window || time.Since(start) >= window {
					return
				}
				if d := time.Until(due); d > 0 {
					ts := syscall.NsecToTimespec(int64(d))
					_ = syscall.Nanosleep(&ts, nil)
				}
				sent := time.Now()
				r := in.warm[i%len(in.warm)]
				req := in.checkRequest(r)
				rctx, cancel := context.WithTimeout(ctx, requestTimeout)
				resp, err := cl.Check(rctx, req)
				cancel()
				done := time.Now()
				w.attempted++
				if err != nil {
					w.fail(err)
					continue
				}
				w.lats = append(w.lats, done.Sub(due))
				w.lates = append(w.lates, sent.Sub(due))
				w.ats = append(w.ats, due.Sub(start))
				if sampled[i] {
					w.records = append(w.records, record{source: in.bodies[r.mod].source, req: req, body: encode(resp)})
				}
			}
		}(ws[k])
	}
	wg.Wait()
	return merge(ws, time.Since(start))
}

const prSetTimerslack = 29

// editLoop runs edit-loop's closed loop: worker w pushes the next edit
// of its sessions in turn as soon as the previous round returns, and
// checks the round's re-check counts against the edit schedule.
// ems[w] are worker w's session modules.
func editLoop(ctx context.Context, cl *client.Client, in *inputs, ems [][]*editModule, window time.Duration, atMark func()) *loadResult {
	return closedLoop(window, atMark, func(w *workerLoad, k int) bool {
		s := w.attempted % editSessions
		em := ems[k][s]
		src, protocol := em.next()
		rctx, cancel := context.WithTimeout(ctx, requestTimeout)
		upd, err := cl.WatchPush(rctx, client.WatchRequest{Session: sessionName(in.seed, k, s), Source: src})
		cancel()
		w.attempted++
		if err != nil {
			w.fail(err)
			return false
		}
		w.rounds++
		w.checked += upd.CheckedClasses
		w.reused += upd.ReusedReports
		wantChecked, wantReused := 1, editComposites
		if protocol {
			wantChecked, wantReused = editComposites+1, 0
		}
		if upd.CheckedClasses != wantChecked || upd.ReusedReports != wantReused {
			w.offSchedule++
		}
		if s == 0 && em.round <= protocolEvery+1 {
			w.records = append(w.records, record{source: src, body: encode(upd.Reports), watch: true})
		}
		return true
	})
}

func sessionName(seed int64, w, s int) string { return fmt.Sprintf("edit-%d-%d-%d", seed, w, s) }

// encode re-encodes a decoded response; the gate compares these bytes
// with the uncached library's.
func encode(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte("encode error: " + err.Error())
	}
	return b
}
