package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// Compare mode reads two result sets (directories of the result files
// runs write under <out>/results) and reports, per workload and
// metric, each side's median and quartiles, the share of seed-paired
// runs the new side won, and a verdict under the benchmark's own
// bounds:
//
//   - improved: the new side wins at least 9 in 10 pairs and the
//     medians differ by more than the old side's quartile spread;
//   - worse: the new median is worse than the old by more than the
//     metric's bound (metrics without a bound use the improved rule
//     in reverse);
//   - unresolved: the old side's quartile spread, as a share of its
//     median, is wider than the bound, so a change within it cannot be
//     told from noise;
//   - unchanged: otherwise.
//
// The exit code is 1 when any end-to-end metric is worse.

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// resultFile is the part of a run's result file compare reads.
type resultFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Record   struct {
		EndToEnd map[string]metric `json:"end_to_end"`
		PerLayer map[string]metric `json:"per_layer"`
	} `json:"record"`
}

type runValue struct {
	seed  int64
	value float64
}

// loadSet reads a result set: workload → metric → values by seed.
func loadSet(dir string) (map[string]map[string][]runValue, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	set := map[string]map[string][]runValue{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if set[rf.Workload] == nil {
			set[rf.Workload] = map[string][]runValue{}
		}
		// End-to-end figures come from untraced runs only; a traced run
		// measures load for half its window.
		ms := rf.Record.EndToEnd
		if rf.Trace == 1 {
			ms = rf.Record.PerLayer
		}
		for name, m := range ms {
			set[rf.Workload][name] = append(set[rf.Workload][name], runValue{rf.Seed, m.Value})
		}
	}
	return set, nil
}

func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "perfbench: -compare needs two result directories: OLD NEW")
		return 2
	}
	var spec benchSpec
	b, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: reading BENCHMARK.json:", err)
		return 2
	}
	rules := map[string]rule{}
	var names []string
	for _, m := range spec.EndToEnd {
		rules[m.Name] = rule{m.Better, m.Bound, true}
		names = append(names, m.Name)
	}
	for _, m := range spec.PerLayer {
		rules[m.Name] = rule{m.Better, 0, false}
		names = append(names, m.Name)
	}
	old, err := loadSet(args[0])
	if err == nil {
		var nw map[string]map[string][]runValue
		if nw, err = loadSet(args[1]); err == nil {
			return compareSets(old, nw, names, rules, stdout)
		}
	}
	fmt.Fprintln(stderr, "perfbench:", err)
	return 2
}

// rule is how compare judges one metric.
type rule struct {
	better string
	bound  float64 // 0: no bound
	e2e    bool
}

func compareSets(old, nw map[string]map[string][]runValue, names []string, rules map[string]rule, out io.Writer) int {
	var workloads []string
	for w := range old {
		if nw[w] != nil {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median [q1, q3]\tnew median [q1, q3]\tchange\tpairs won\tverdict")
	code := 0
	for _, w := range workloads {
		for _, name := range names {
			a, b := old[w][name], nw[w][name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			r := rules[name]
			v := verdictOf(a, b, r.better, r.bound)
			if v.verdict == "worse" && r.e2e {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%s\t%s\n",
				w, name, v.oldMed, v.oldQ1, v.oldQ3, v.newMed, v.newQ1, v.newQ3,
				100*ratio(v.newMed-v.oldMed, math.Abs(v.oldMed)), v.won, v.verdict)
		}
	}
	tw.Flush()
	return code
}

type comparison struct {
	oldMed, oldQ1, oldQ3 float64
	newMed, newQ1, newQ3 float64
	won                  string
	verdict              string
}

// verdictOf applies the rules in the comment at the top of this file.
// better is "lower" or "higher"; bound is 0 for metrics without one.
func verdictOf(a, b []runValue, better string, bound float64) comparison {
	vals := func(rs []runValue) []float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = r.value
		}
		return xs
	}
	var c comparison
	c.oldMed = median(vals(a))
	c.oldQ1, c.oldQ3 = quartiles(vals(a))
	c.newMed = median(vals(b))
	c.newQ1, c.newQ3 = quartiles(vals(b))
	sign := 1.0 // positive gain means the new side is better
	if better == "lower" {
		sign = -1
	}
	// Pairs: runs with the same seed; without common seeds, runs pair in
	// sorted-seed order.
	bySeed := map[int64]float64{}
	for _, r := range b {
		bySeed[r.seed] = r.value
	}
	var wins, pairs int
	for _, r := range a {
		if v, ok := bySeed[r.seed]; ok {
			pairs++
			if sign*(v-r.value) > 0 {
				wins++
			}
		}
	}
	if pairs == 0 {
		sa, sb := append([]runValue(nil), a...), append([]runValue(nil), b...)
		sort.Slice(sa, func(i, j int) bool { return sa[i].seed < sa[j].seed })
		sort.Slice(sb, func(i, j int) bool { return sb[i].seed < sb[j].seed })
		for i := 0; i < len(sa) && i < len(sb); i++ {
			pairs++
			if sign*(sb[i].value-sa[i].value) > 0 {
				wins++
			}
		}
	}
	c.won = fmt.Sprintf("%d/%d", wins, pairs)
	gain := sign * (c.newMed - c.oldMed)
	spread := c.oldQ3 - c.oldQ1
	share := ratio(spread, math.Abs(c.oldMed))
	switch {
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && gain > spread:
		c.verdict = "improved"
	case bound > 0 && -gain > bound*math.Abs(c.oldMed):
		c.verdict = "worse"
	case bound == 0 && pairs > 0 && float64(pairs-wins) >= 0.9*float64(pairs) && -gain > spread && gain != 0:
		c.verdict = "worse"
	case bound > 0 && share > bound:
		c.verdict = "unresolved"
	default:
		c.verdict = "unchanged"
	}
	return c
}
