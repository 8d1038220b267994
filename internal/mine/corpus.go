// Package mine passively infers protocol automata from production
// traces and diffs them against the statically inferred models: the
// dynamic half of the paper's story (AutoModel-style trace mining)
// bolted onto the static half this repo already implements. Traces
// stream in from deployed fleets through bounded per-class corpora
// (shed-and-count, never blocking), a background miner runs the
// internal/learn L* stack against a corpus-backed teacher, and a drift
// detector classifies each class as conformant, under-approximated, or
// drifting — with a minimal counterexample trace when devices exercise
// behavior the static model forbids.
package mine

import (
	"sort"
	"sync"

	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/regex"
)

// CorpusConfig bounds one class's trace corpus. All bounds shed (the
// corpus counts and drops) rather than fail, so a chatty fleet degrades
// mining fidelity instead of daemon health. Zero values take defaults.
type CorpusConfig struct {
	// MaxTraces caps distinct accepted (complete-usage) traces.
	MaxTraces int

	// MaxTraceEvents caps the events of a single trace.
	MaxTraceEvents int

	// MaxNodes caps prefix-tree nodes across all traces.
	MaxNodes int

	// MaxSymbols caps the interned event alphabet.
	MaxSymbols int
}

func (c CorpusConfig) withDefaults() CorpusConfig {
	if c.MaxTraces == 0 {
		c.MaxTraces = 4096
	}
	if c.MaxTraceEvents == 0 {
		c.MaxTraceEvents = 256
	}
	if c.MaxNodes == 0 {
		c.MaxNodes = 65536
	}
	if c.MaxSymbols == 0 {
		c.MaxSymbols = 256
	}
	return c
}

// maxTrackedDevices bounds the distinct-device set kept for reporting.
const maxTrackedDevices = 4096

// CorpusStats is a point-in-time summary of a corpus.
type CorpusStats struct {
	Traces  int    // distinct accepted traces
	Events  uint64 // events appended into the trie
	Nodes   int    // prefix-tree nodes
	Symbols int    // interned alphabet size
	Devices int    // distinct devices observed (capped)
	Shed    uint64 // appends dropped by a bound
	Version uint64 // bumped whenever the accepted language changes
}

// Corpus is a bounded, deduplicating prefix tree of observed traces for
// one class. Event strings are interned once into a symbol table and
// every trie edge and stored trace references the interned instance, so
// a fleet repeating the same operations a million times costs one copy
// of each name — this is what keeps ingest appends allocation-flat (see
// BenchmarkIngestAppend).
type Corpus struct {
	mu      sync.RWMutex
	cfg     CorpusConfig
	syms    map[string]int32
	names   []string // interned symbol spellings, index = id
	root    *cnode
	nodes   int
	traces  int
	events  uint64
	shed    uint64
	version uint64
	devices map[string]struct{}
}

type cnode struct {
	next   map[int32]*cnode
	accept bool
	count  uint64 // accepted observations ending at this node
}

// NewCorpus returns an empty corpus under the given bounds.
func NewCorpus(cfg CorpusConfig) *Corpus {
	return &Corpus{
		cfg:     cfg.withDefaults(),
		syms:    make(map[string]int32),
		root:    &cnode{},
		nodes:   1,
		devices: make(map[string]struct{}),
	}
}

// Add appends one observation. accepted marks a complete usage (the
// device finished the protocol cleanly); partial or errored
// observations contribute their prefix to the tree but not to the
// accepted language the miner learns. Add reports false when a bound
// shed the observation; it never blocks.
func (c *Corpus) Add(device string, events []string, accepted bool) bool {
	if len(events) > c.cfg.MaxTraceEvents {
		c.mu.Lock()
		c.shed++
		c.mu.Unlock()
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	if device != "" && len(c.devices) < maxTrackedDevices {
		c.devices[device] = struct{}{}
	}

	n := c.root
	for _, ev := range events {
		id, ok := c.syms[ev]
		if !ok {
			if len(c.names) >= c.cfg.MaxSymbols {
				c.shed++
				return false
			}
			// Intern: the map key and the names entry share one string;
			// every later lookup of the same spelling reuses it.
			id = int32(len(c.names))
			c.names = append(c.names, ev)
			c.syms[ev] = id
		}
		child, ok := n.next[id]
		if !ok {
			if c.nodes >= c.cfg.MaxNodes {
				c.shed++
				return false
			}
			child = &cnode{}
			if n.next == nil {
				n.next = make(map[int32]*cnode, 1)
			}
			n.next[id] = child
			c.nodes++
		}
		n = child
	}
	c.events += uint64(len(events))
	if accepted {
		if !n.accept {
			if c.traces >= c.cfg.MaxTraces {
				c.shed++
				return false
			}
			n.accept = true
			c.traces++
			c.version++
		}
		n.count++
	}
	return true
}

func (c *Corpus) statsLocked() CorpusStats {
	return CorpusStats{
		Traces:  c.traces,
		Events:  c.events,
		Nodes:   c.nodes,
		Symbols: len(c.names),
		Devices: len(c.devices),
		Shed:    c.shed,
		Version: c.version,
	}
}

// Snapshot is an immutable view of a corpus taken at one version: the
// prefix-tree acceptor as a DFA, the accepted traces, and the observed
// alphabet. The miner learns against snapshots so concurrent ingest
// appends can never flip a membership answer mid-run (L* requires a
// consistent oracle).
type Snapshot struct {
	// PTA is the prefix-tree acceptor: a DFA accepting exactly the
	// observed complete usages.
	PTA *automata.DFA

	// Traces are the accepted traces, shortest-first then lexicographic.
	// Event strings are interned; callers must not mutate.
	Traces [][]string

	// Alphabet is the sorted observed event alphabet.
	Alphabet []string

	// Stats summarizes the corpus at snapshot time.
	Stats CorpusStats
}

// Snapshot copies the corpus into an immutable Snapshot. Cost is linear
// in trie nodes (bounded by MaxNodes), so a snapshot is cheap enough to
// take every mining round.
func (c *Corpus) Snapshot() *Snapshot {
	c.mu.RLock()
	defer c.mu.RUnlock()

	alphabet := make([]string, len(c.names))
	copy(alphabet, c.names)
	sort.Strings(alphabet)

	pta := automata.NewDFA(alphabet)
	pta.SetAccepting(pta.Start(), c.root.accept)

	var traces [][]string
	// DFS with an explicit stack of (trie node, DFA state, interned path).
	type frame struct {
		n     *cnode
		state int
		path  []string
	}
	stack := []frame{{n: c.root, state: pta.Start()}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.n.accept {
			traces = append(traces, f.path)
		}
		for id, child := range f.n.next {
			st := pta.AddState(child.accept)
			// Symbols come from the interned table, so AddTransition's
			// name lookup always succeeds.
			_ = pta.AddTransition(f.state, c.names[id], st)
			path := make([]string, len(f.path)+1)
			copy(path, f.path)
			path[len(f.path)] = c.names[id]
			stack = append(stack, frame{n: child, state: st, path: path})
		}
	}
	sort.Slice(traces, func(i, j int) bool { return regex.LessTrace(traces[i], traces[j]) })
	return &Snapshot{PTA: pta, Traces: traces, Alphabet: alphabet, Stats: c.statsLocked()}
}
