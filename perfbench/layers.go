package main

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"github.com/shelley-go/shelley/client"
	"github.com/shelley-go/shelley/internal/pipeline"
)

// Replay sizes: enough requests for stable medians, few enough that
// the replay fits in half a run.
const (
	coldReplay    = 120 // cold-check modules replayed layer by layer
	editReplay    = 2 * protocolEvery
	editModules   = 4                 // edit-loop session modules the replay covers
	sessionReplay = 3 * protocolEvery // session rounds on the check workloads
	handlerCalls  = 2048
	handlerKeys   = 32 // distinct warm keys on cold-check and edit-loop
)

// replayInputs returns the sources the layer chain runs over and the
// generations of each session the session replay feeds.
func replayInputs(in *inputs) (chain []string, sessions [][]string) {
	rounds := func(em *editModule, n int) []string {
		out := []string{em.source()}
		for r := 0; r < n; r++ {
			src, _ := em.next()
			out = append(out, src)
		}
		return out
	}
	switch in.workload {
	case "cold-check":
		for i := 0; i < coldReplay; i++ {
			chain = append(chain, coldSource(in.bodies, in.seed, i))
		}
	case "warm-hit":
		for _, m := range in.bodies {
			chain = append(chain, m.source)
		}
	case "edit-loop":
		for s := 0; s < editModules; s++ {
			gens := rounds(in.editModule(s%workers, s/workers), editReplay)
			chain = append(chain, gens...)
			sessions = append(sessions, gens)
		}
		return chain, sessions
	}
	return chain, [][]string{rounds(in.editModule(0, 0), sessionReplay)}
}

// handlerRequests is the warm request mix the handler replay serves.
func handlerRequests(in *inputs, chain []string) []client.CheckRequest {
	reqs := make([]client.CheckRequest, handlerCalls)
	for i := range reqs {
		if in.workload == "warm-hit" {
			reqs[i] = in.checkRequest(in.warm[i%len(in.warm)])
		} else {
			reqs[i] = client.CheckRequest{Source: chain[i%min(handlerKeys, len(chain))]}
		}
	}
	return reqs
}

// perLayer runs the traced in-process replay and assembles the
// per-layer metrics. sc is the /metrics delta of the timed window and
// p50 its end-to-end median latency.
func perLayer(o options, in *inputs, load *loadResult, sc scrape, p50 time.Duration, budget time.Duration, log io.Writer) (m map[string]metric, extra map[string]float64, err error) {
	deadline := time.Now().Add(budget)
	tr := &tracer{t0: time.Now()}
	chainSrcs, sessions := replayInputs(in)

	var chains []chainResult
	for i, src := range chainSrcs {
		if i >= 16 && time.Now().After(deadline) {
			break
		}
		c, err := replayChain(tr, i+1, src)
		if err != nil {
			return nil, nil, fmt.Errorf("replay %d: %w", i, err)
		}
		if c.rebuilds > 0 {
			fmt.Fprintf(log, "perfbench: replay %d: check rebuilt %d stage entries the chain should have filled\n", i, c.rebuilds)
		}
		chains = append(chains, c)
	}
	chainSrcs = chainSrcs[:len(chains)]
	hr, err := replayHandler(tr, len(chainSrcs)+1, handlerRequests(in, chainSrcs))
	if err != nil {
		return nil, nil, err
	}
	sr, err := replaySessions(tr, len(chainSrcs)+2, sessions)
	if err != nil {
		return nil, nil, err
	}
	// Stage hit ratios: edit-loop's from its session replay; cold-check's
	// from a library check of the replayed modules, each with its own
	// cache as the daemon keeps them (the daemon's counters sum only
	// resident modules, and cold-check evicts); warm-hit's from the
	// daemon's counters over the timed window.
	var hits, misses [pipeline.NumStages]float64
	switch in.workload {
	case "warm-hit":
		hits, misses = sc.stageHits, sc.stageMisses
	default:
		stats := sr.stats
		if in.workload == "cold-check" {
			if stats, err = stageStats(chainSrcs); err != nil {
				return nil, nil, err
			}
		}
		for st := range hits {
			hits[st] = float64(stats.Of(pipeline.Stage(st)).Hits)
			misses[st] = float64(stats.Of(pipeline.Stage(st)).Misses)
		}
	}
	if err := tr.writeChrome(filepath.Join(o.out, "spans", fmt.Sprintf("%s.seed%d.json", o.workload, o.seed))); err != nil {
		return nil, nil, err
	}

	// Per-request medians of each layer's self time, and totals for the
	// per-unit metrics.
	var med [numLayers]float64
	var sum [numLayers]float64
	var n chainResult
	for l := layer(0); l < numLayers; l++ {
		xs := make([]float64, len(chains))
		for i, c := range chains {
			xs[i] = us(c.t[l])
			sum[l] += xs[i]
		}
		med[l] = median(xs)
	}
	for _, c := range chains {
		n.classes += c.classes
		n.composites += c.composites
		n.ops += c.ops
		n.claims += c.claims
		n.autoStates += c.autoStates
		n.flatStates += c.flatStates
	}
	medUS := func(ds []time.Duration) float64 {
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = us(d)
		}
		return median(xs)
	}
	mean := func(xs []int) float64 {
		t := 0
		for _, x := range xs {
			t += x
		}
		return ratio(float64(t), float64(len(xs)))
	}

	handler, decode, render, fingerprint := medUS(hr.lats), med[lDecode], med[lRender], med[lFingerprint]
	var ladder float64
	switch in.workload {
	case "cold-check":
		for l := layer(0); l < numLayers; l++ {
			ladder += med[l]
		}
	case "warm-hit":
		decode, fingerprint = medUS(hr.decodes), medUS(hr.fingerprints)
		ladder = handler + decode
	case "edit-loop":
		decode, render, fingerprint = medUS(sr.decode), medUS(sr.render), medUS(sr.fingerprint)
		ladder = fingerprint + medUS(sr.update) + medUS(sr.recheck) + render + decode
	}
	wire := us(p50) - ladder
	requests := float64(load.attempted)
	m = map[string]metric{
		"pytoken.us_per_module":       {med[lTokenize], "us"},
		"pyparse.us_per_module":       {med[lParse], "us"},
		"model.us_per_class":          {ratio(sum[lModel], float64(n.classes)), "us"},
		"core.us_per_op":              {ratio(sum[lCore], float64(n.ops)), "us"},
		"automata.us_per_op":          {ratio(sum[lAutomata], float64(n.ops)), "us"},
		"automata.states_per_op":      {ratio(float64(n.autoStates), float64(n.ops)), "count"},
		"spec.us_per_class":           {ratio(sum[lSpec], float64(n.classes)), "us"},
		"flatten.us_per_class":        {ratio(sum[lFlatten], float64(n.composites)), "us"},
		"flatten.states_per_class":    {ratio(float64(n.flatStates), float64(n.composites)), "count"},
		"ltlf.us_per_claim":           {ratio(sum[lLTLf], float64(n.claims)), "us"},
		"check.us_per_class":          {ratio(sum[lCheck], float64(n.classes)), "us"},
		"render.us_per_response":      {render, "us"},
		"client.fingerprint_us":       {fingerprint, "us"},
		"server.handler_us":           {handler, "us"},
		"server.handler_allocs":       {hr.allocs, "count"},
		"server.handler_bytes":        {hr.bytes, "bytes"},
		"client.decode_us":            {decode, "us"},
		"wire.us":                     {wire, "us"},
		"session.update_us":           {medUS(sr.update), "us"},
		"session.recheck_us":          {medUS(sr.recheck), "us"},
		"session.checked_per_round":   {mean(sr.checked), "count"},
		"session.reused_per_round":    {mean(sr.reused), "count"},
		"session.heap_kb_per_round":   {sr.heapKBPerRound, "KB"},
		"server.body_cache_hit_ratio": {ratio(sc.bodyHits, requests), "ratio"},
		"server.module_cache_hit_ratio": {
			ratio(sc.moduleHits, sc.moduleHits+sc.moduleMisses), "ratio"},
		"server.module_evictions":  {sc.evictions, "count"},
		"server.coalesced_per_req": {ratio(sc.coalesced, requests), "ratio"},
		"server.pipeline_misses":   {sc.pipelineMisses(), "count"},
		"loadgen.late_p99_us":      {us(percentile(load.lates, 0.99)), "us"},
		"ladder.residual_pct":      {100 * ratio(wire, us(p50)), "%"},
	}
	for st := range hits {
		// A stage nothing looked up built nothing: its ratio is 1.
		r := 1.0
		if n := hits[st] + misses[st]; n > 0 {
			r = hits[st] / n
		}
		m["pipeline."+pipeline.Stage(st).String()+".hit_ratio"] = metric{r, "ratio"}
	}
	extra = map[string]float64{
		"ladder.sum_us":               ladder,
		"workload.shared_class_ratio": sharedRatio(in.bodies),
		"chain_replays":               float64(len(chains)),
	}
	return m, extra, nil
}
