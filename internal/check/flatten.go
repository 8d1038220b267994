package check

import (
	"context"
	"fmt"
	"sort"

	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/budget"
	"github.com/shelley-go/shelley/internal/model"
)

// flatAutomaton is the composite class's behavior over *subsystem*
// operations: the class's usage protocol with every composite operation
// substituted by the inferred behavior of its body (§3.2). It is an
// ε-NFA whose ε-edges optionally carry the name of the composite
// operation being entered, so counterexample traces can be rendered with
// the operation boundaries the paper's error messages show
// ("open_a, a.test, a.open").
type flatAutomaton struct {
	alphabet []string
	edges    [][]flatEdge
	accept   []bool
	start    int
}

type flatEdge struct {
	to  int
	sym string // "" for ε
	op  string // composite operation entered, for ε boundary edges
}

// flatBuilder grows a flat automaton under the flatten gate. The
// substitution allocates one copy of a behavior automaton per protocol
// edge; each factor is individually bounded by construction budgets,
// but their product is not, so the flat state count gets its own gate.
type flatBuilder struct {
	f    *flatAutomaton
	gate *budget.Gate
	err  error // the first gate error
}

func newFlatBuilder(cfg config, alphabet []string) *flatBuilder {
	return &flatBuilder{f: &flatAutomaton{alphabet: alphabet}, gate: budget.NFAGate(cfg.ctx, "flatten")}
}

func (b *flatBuilder) addState(accepting bool) int {
	if b.err == nil {
		b.err = b.gate.Tick()
	}
	b.f.edges = append(b.f.edges, nil)
	b.f.accept = append(b.f.accept, accepting)
	return len(b.f.edges) - 1
}

// behaviorCopy is a behavior DFA to splice, with the number of flat
// edges one copy of it has.
type behaviorCopy struct {
	dfa   *automata.DFA
	edges int
}

func newBehaviorCopy(d *automata.DFA) behaviorCopy {
	edges := 0
	for s := 0; s < d.NumStates(); s++ {
		for _, sym := range d.Alphabet() {
			if d.Target(s, sym) >= 0 {
				edges++
			}
		}
		if d.Accepting(s) {
			edges++
		}
	}
	return behaviorCopy{d, edges}
}

// splice substitutes a fresh copy of a behavior automaton for an edge
// from → to: an ε-edge carrying op enters the copy's start state, and
// every accepting state of the copy leaves by an ε-edge to to. The
// copy's nodes are consecutive and share one edge array.
func (b *flatBuilder) splice(from, to int, op string, c behaviorCopy) {
	d := c.dfa
	if d.NumStates() == 0 {
		return
	}
	base := len(b.f.edges)
	for s := 0; s < d.NumStates(); s++ {
		b.addState(false)
	}
	b.f.edges[from] = append(b.f.edges[from], flatEdge{to: base + d.Start(), op: op})
	edges := make([]flatEdge, 0, c.edges)
	for s := 0; s < d.NumStates(); s++ {
		first := len(edges)
		for _, sym := range d.Alphabet() {
			if t := d.Target(s, sym); t >= 0 {
				edges = append(edges, flatEdge{to: base + t, sym: sym})
			}
		}
		if d.Accepting(s) {
			edges = append(edges, flatEdge{to: to})
		}
		if len(edges) > first {
			b.f.edges[base+s] = edges[first:len(edges):len(edges)]
		}
	}
}

// flatten builds the flat automaton of a composite class.
func flatten(cfg config, c *model.Class, alphabet []string) (*flatAutomaton, error) {
	protocol, err := cfg.specDFA(c, "")
	if err != nil {
		return nil, err
	}

	// Behavior DFA per operation, built (or cache-retrieved) once.
	behavior := make(map[string]behaviorCopy, len(c.Operations))
	for _, op := range c.Operations {
		b, err := cfg.behaviorDFA(op.Method.Program)
		if err != nil {
			return nil, err
		}
		behavior[op.Name] = newBehaviorCopy(b)
	}

	// Size the node arrays for one node per protocol state plus one per
	// state of every behavior copy, up to a bound: the gate, not this
	// estimate, decides how large a flat automaton may grow.
	nodes := protocol.NumStates()
	for p := 0; p < protocol.NumStates(); p++ {
		for _, op := range c.Operations {
			if protocol.Target(p, op.Name) >= 0 {
				nodes += behavior[op.Name].dfa.NumStates()
			}
		}
	}
	nodes = min(nodes, 1<<12)
	fb := newFlatBuilder(cfg, alphabet)
	f := fb.f
	f.edges = make([][]flatEdge, 0, nodes)
	f.accept = make([]bool, 0, nodes)

	// One node per protocol state.
	protoNode := make([]int, protocol.NumStates())
	for p := 0; p < protocol.NumStates(); p++ {
		protoNode[p] = fb.addState(protocol.Accepting(p))
	}
	f.start = protoNode[protocol.Start()]

	// Substitute each protocol transition p --m--> q with a copy of
	// behavior(m).
	for p := 0; p < protocol.NumStates(); p++ {
		if fb.err != nil {
			return nil, fb.err
		}
		for _, op := range c.Operations {
			if q := protocol.Target(p, op.Name); q >= 0 {
				fb.splice(protoNode[p], protoNode[q], op.Name, behavior[op.Name])
			}
		}
	}
	if fb.err != nil {
		return nil, fb.err
	}
	return f, nil
}

// toDFA erases the operation boundaries and determinizes under ctx's
// resource budget (the subset construction is the exponential step).
func (f *flatAutomaton) toDFA(ctx context.Context) (*automata.DFA, error) {
	// NFA state i is node i: state 0 already exists (the NFA's start);
	// add the rest.
	n := automata.NewNFA(f.alphabet)
	n.Grow(len(f.edges) - 1)
	for i := 1; i < len(f.edges); i++ {
		n.AddState(false)
	}
	for i, accepting := range f.accept {
		n.SetAccepting(i, accepting)
	}
	for from, edges := range f.edges {
		for _, e := range edges {
			if e.sym == "" {
				n.AddEpsilon(from, e.to)
				continue
			}
			if err := n.AddTransition(from, e.sym, e.to); err != nil {
				// The alphabet is the union of all subsystem operations;
				// flatten's callers validate call definedness first, so
				// this cannot happen. Panicking here would crash tools on
				// a bug; drop the edge instead (under-approximating) and
				// rely on the definedness diagnostics.
				continue
			}
		}
	}
	// Node 0 is the first protocol state, which is f.start only when
	// the protocol starts in state 0.
	n.SetStart(f.start)
	return n.DeterminizeCtx(ctx)
}

// pathEvent is one element of an annotated counterexample path: entering
// a composite operation or emitting a subsystem symbol.
type pathEvent struct {
	op  string // non-empty: entering this operation
	sym string // non-empty: subsystem operation fired
}

// annotate finds an accepting run of f over the exact trace and returns
// the path events (operation entries interleaved with symbols). BFS over
// (state, position) pairs keeps the reconstruction shortest and
// deterministic.
func (f *flatAutomaton) annotate(trace []string) ([]pathEvent, error) {
	type node struct {
		state, pos int
	}
	type step struct {
		prev  node
		event pathEvent
		used  bool
	}
	visited := make(map[node]step)
	startNode := node{state: f.start, pos: 0}
	visited[startNode] = step{}
	queue := []node{startNode}

	var goal *node
	for len(queue) > 0 && goal == nil {
		cur := queue[0]
		queue = queue[1:]
		if cur.pos == len(trace) && f.accept[cur.state] {
			g := cur
			goal = &g
			break
		}
		for _, e := range f.edges[cur.state] {
			var next node
			var ev pathEvent
			switch {
			case e.sym == "":
				next = node{state: e.to, pos: cur.pos}
				ev = pathEvent{op: e.op}
			case cur.pos < len(trace) && trace[cur.pos] == e.sym:
				next = node{state: e.to, pos: cur.pos + 1}
				ev = pathEvent{sym: e.sym}
			default:
				continue
			}
			if _, seen := visited[next]; seen {
				continue
			}
			visited[next] = step{prev: cur, event: ev, used: true}
			queue = append(queue, next)
		}
	}
	if goal == nil {
		return nil, fmt.Errorf("check: trace %v is not accepted by the flattened automaton", trace)
	}
	var events []pathEvent
	for at := *goal; ; {
		s := visited[at]
		if !s.used {
			break
		}
		if s.event.op != "" || s.event.sym != "" {
			events = append(events, s.event)
		}
		at = s.prev
	}
	// Reverse.
	for i, j := 0, len(events)-1; i < j; i, j = i+1, j-1 {
		events[i], events[j] = events[j], events[i]
	}
	return events, nil
}

// subsystemAlphabet returns the union of the qualified operation names
// of every subsystem, sorted.
func subsystemAlphabet(c *model.Class, reg Registry) ([]string, error) {
	var out []string
	for _, name := range c.SubsystemNames {
		subClass, err := reg.resolve(c, name)
		if err != nil {
			return nil, err
		}
		for _, op := range subClass.Operations {
			out = append(out, name+"."+op.Name)
		}
	}
	sort.Strings(out)
	return out, nil
}
