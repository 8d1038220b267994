package check

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/budget"
	"github.com/shelley-go/shelley/internal/core"
	"github.com/shelley-go/shelley/internal/model"
	"github.com/shelley-go/shelley/internal/pipeline"
	"github.com/shelley-go/shelley/internal/pyparse"
	"github.com/shelley-go/shelley/internal/regex"
)

// The two flattenings as they were before they shared one splice,
// verbatim up to renaming, as the oracles of
// TestFlattenMatchesReference.

// refFlatten is flatten before the splice was shared.
func refFlatten(cfg config, c *model.Class, alphabet []string) (*flatAutomaton, error) {
	protocol, err := cfg.specDFA(c, "")
	if err != nil {
		return nil, err
	}

	// The substitution allocates |protocol transitions| copies of the
	// operations' behavior automata; each factor is individually bounded
	// by construction budgets, but their product is not, so the flat
	// state count gets its own gate.
	gate := budget.NFAGate(cfg.ctx, "flatten")
	var gateErr error
	f := &flatAutomaton{alphabet: alphabet}
	addState := func(accepting bool) int {
		if gateErr == nil {
			gateErr = gate.Tick()
		}
		f.edges = append(f.edges, nil)
		f.accept = append(f.accept, accepting)
		return len(f.edges) - 1
	}

	// Behavior DFA per operation, built (or cache-retrieved) once, with
	// the number of flat edges one copy of it has.
	type opBehavior struct {
		dfa   *automata.DFA
		edges int
	}
	behavior := make(map[string]opBehavior, len(c.Operations))
	for _, op := range c.Operations {
		b, err := cfg.behaviorDFA(op.Method.Program)
		if err != nil {
			return nil, err
		}
		edges := 0
		for s := 0; s < b.NumStates(); s++ {
			for _, sym := range b.Alphabet() {
				if b.Target(s, sym) >= 0 {
					edges++
				}
			}
			if b.Accepting(s) {
				edges++
			}
		}
		behavior[op.Name] = opBehavior{b, edges}
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
	f.edges = make([][]flatEdge, 0, nodes)
	f.accept = make([]bool, 0, nodes)

	// One node per protocol state.
	protoNode := make([]int, protocol.NumStates())
	for p := 0; p < protocol.NumStates(); p++ {
		protoNode[p] = addState(protocol.Accepting(p))
	}
	f.start = protoNode[protocol.Start()]

	// Substitute each protocol transition p --m--> q with a copy of
	// behavior(m) bracketed by ε-edges. A copy's nodes are consecutive,
	// from base, and share one edge array.
	for p := 0; p < protocol.NumStates(); p++ {
		if gateErr != nil {
			return nil, gateErr
		}
		for _, op := range c.Operations {
			q := protocol.Target(p, op.Name)
			if q < 0 {
				continue
			}
			b := behavior[op.Name].dfa
			if b.NumStates() == 0 {
				continue
			}
			base := len(f.edges)
			for s := 0; s < b.NumStates(); s++ {
				addState(false)
			}
			f.edges[protoNode[p]] = append(f.edges[protoNode[p]], flatEdge{
				to: base + b.Start(),
				op: op.Name,
			})
			edges := make([]flatEdge, 0, behavior[op.Name].edges)
			for s := 0; s < b.NumStates(); s++ {
				from := len(edges)
				for _, sym := range b.Alphabet() {
					if t := b.Target(s, sym); t >= 0 {
						edges = append(edges, flatEdge{to: base + t, sym: sym})
					}
				}
				if b.Accepting(s) {
					edges = append(edges, flatEdge{to: protoNode[q]})
				}
				f.edges[base+s] = edges[from:len(edges):len(edges)]
			}
		}
	}
	if gateErr != nil {
		return nil, gateErr
	}
	return f, nil
}

// refFlattenExitAware is flattenExitAware before the splice was
// shared. It builds the exit-aware flat automaton: protocol states
// are "just created" plus one state per (operation, exit point); the
// edge entering operation n toward its exit e substitutes the behavior
// of exactly the paths that reach e's return statement.
//
// Operations whose body can fall off the end without returning
// contribute a pseudo-exit with the ongoing behavior and no
// continuations.
func refFlattenExitAware(cfg config, c *model.Class, alphabet []string) (*flatAutomaton, error) {
	// Like flatten, the per-exit substitution multiplies protocol edges
	// by behavior copies, so the flat state count is gated.
	gate := budget.NFAGate(cfg.ctx, "flatten")
	var gateErr error
	f := &flatAutomaton{alphabet: alphabet}
	addState := func(accepting bool) int {
		if gateErr == nil {
			gateErr = gate.Tick()
		}
		f.edges = append(f.edges, nil)
		f.accept = append(f.accept, accepting)
		return len(f.edges) - 1
	}

	start := addState(true) // never using the composite is valid
	f.start = start

	// Per-operation refinement and per-(op, exit) states.
	type exitInfo struct {
		state    int
		next     []string
		behavior *automata.DFA
	}
	exitsOf := make(map[string][]exitInfo, len(c.Operations))
	for _, op := range c.Operations {
		fine := core.ExtractPerExit(op.Method.Program)
		var infos []exitInfo
		for _, e := range op.Method.Exits {
			expr, ok := fine.ByExit[e.ID]
			if !ok {
				continue // unreachable return (e.g. dead code after return)
			}
			b, err := cfg.minimalDFA(regex.Simplify(expr))
			if err != nil {
				return nil, err
			}
			infos = append(infos, exitInfo{
				state:    addState(op.Final),
				next:     e.Next,
				behavior: b,
			})
		}
		if !regex.IsEmptyLanguage(regex.Simplify(fine.Ongoing)) {
			// Implicit exit: the body can complete without a return; no
			// operation may follow (Python returns None here, which
			// declares nothing).
			b, err := cfg.minimalDFA(regex.Simplify(fine.Ongoing))
			if err != nil {
				return nil, err
			}
			infos = append(infos, exitInfo{
				state:    addState(op.Final),
				behavior: b,
			})
		}
		exitsOf[op.Name] = infos
	}

	// connect wires source state s to every exit of operation n through
	// a fresh copy of that exit's behavior automaton.
	connect := func(s int, opName string) {
		if gateErr != nil {
			return
		}
		for _, info := range exitsOf[opName] {
			b := info.behavior
			copyNode := make([]int, b.NumStates())
			for i := 0; i < b.NumStates(); i++ {
				copyNode[i] = addState(false)
			}
			f.edges[s] = append(f.edges[s], flatEdge{to: copyNode[b.Start()], op: opName})
			for i := 0; i < b.NumStates(); i++ {
				for _, sym := range b.Alphabet() {
					if t := b.Target(i, sym); t >= 0 {
						f.edges[copyNode[i]] = append(f.edges[copyNode[i]], flatEdge{
							to:  copyNode[t],
							sym: sym,
						})
					}
				}
				if b.Accepting(i) {
					f.edges[copyNode[i]] = append(f.edges[copyNode[i]], flatEdge{to: info.state})
				}
			}
		}
	}

	for _, op := range c.Operations {
		if op.Initial {
			connect(start, op.Name)
		}
	}
	for _, op := range c.Operations {
		for _, info := range exitsOf[op.Name] {
			seen := make(map[string]struct{}, len(info.next))
			for _, n := range info.next {
				if _, dup := seen[n]; dup {
					continue
				}
				seen[n] = struct{}{}
				if c.Operation(n) == nil {
					continue // reported by Validate/definedness
				}
				connect(info.state, n)
			}
		}
	}
	if gateErr != nil {
		return nil, gateErr
	}
	return f, nil
}

// randFlattenSource emits a base class Dev and a composite Ctl over it.
// Ctl's operations have random bodies (subsystem calls, if/else and
// while blocks, returns with random continuation sets at any depth), so
// they get several exits, returns inside loops and implicit exits.
func randFlattenSource(rng *rand.Rand) string {
	var b strings.Builder
	devOps := 1 + rng.Intn(3)
	b.WriteString("@sys\nclass Dev:\n")
	for i := 0; i < devOps; i++ {
		fmt.Fprintf(&b, "    @%s\n    def op%d(self):\n", randDecorator(rng, i == 0), i)
		fmt.Fprintf(&b, "        if self.c():\n            return %s\n", randNext(rng, "op", devOps))
		fmt.Fprintf(&b, "        return %s\n\n", randNext(rng, "op", devOps))
	}
	ctlOps := 1 + rng.Intn(4)
	b.WriteString("@sys([\"d\"])\nclass Ctl:\n    def __init__(self):\n        self.d = Dev()\n\n")
	for i := 0; i < ctlOps; i++ {
		fmt.Fprintf(&b, "    @%s\n    def go%d(self):\n", randDecorator(rng, i == 0), i)
		var block func(indent string, depth int)
		block = func(indent string, depth int) {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				switch k := rng.Intn(8); {
				case k < 4 || depth > 2:
					fmt.Fprintf(&b, "%sself.d.op%d()\n", indent, rng.Intn(devOps))
				case k == 4:
					fmt.Fprintf(&b, "%sif self.x():\n", indent)
					block(indent+"    ", depth+1)
					fmt.Fprintf(&b, "%selse:\n", indent)
					block(indent+"    ", depth+1)
				case k == 5:
					fmt.Fprintf(&b, "%swhile self.x():\n", indent)
					block(indent+"    ", depth+1)
				default:
					fmt.Fprintf(&b, "%sreturn %s\n", indent, randNext(rng, "go", ctlOps))
					return
				}
			}
		}
		block("        ", 0)
		if rng.Intn(3) > 0 {
			fmt.Fprintf(&b, "        return %s\n", randNext(rng, "go", ctlOps))
		}
		b.WriteString("\n")
	}
	return b.String()
}

func randDecorator(rng *rand.Rand, initial bool) string {
	initial = initial || rng.Intn(3) == 0
	switch final := rng.Intn(2) == 0; {
	case initial && final:
		return "op_initial_final"
	case initial:
		return "op_initial"
	case final:
		return "op_final"
	}
	return "op"
}

func randNext(rng *rand.Rand, prefix string, n int) string {
	var next []string
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			next = append(next, fmt.Sprintf("%q", fmt.Sprintf("%s%d", prefix, i)))
		}
	}
	return "[" + strings.Join(next, ", ") + "]"
}

// composites returns every composite class of the module source, with a
// registry of all its classes.
func composites(src string) ([]*model.Class, Registry, error) {
	m, err := pyparse.ParseModule(src)
	if err != nil {
		return nil, nil, err
	}
	var all, out []*model.Class
	for _, cls := range m.Classes {
		c, err := model.FromAST(cls)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, c)
		if len(c.SubsystemNames) > 0 {
			out = append(out, c)
		}
	}
	return out, NewRegistry(all...), nil
}

// TestFlattenMatchesReference: on every composite of testdata/*.py and
// on 1,000 random composites, both flattening modes build ε-automata
// deeply equal to the reference ones, and under every MaxNFAStates from
// 1 up to the automaton's size the flatten gate trips with the same
// error at the same limit. The one exception is a composite with an
// unreachable return, whose dead copies the reference exit-aware
// flattening still splices: there the flattened DFAs must be
// language-equal and the precise reports byte-equal to the ones the
// reference produced (deadReturnReports pins their digest).
func TestFlattenMatchesReference(t *testing.T) {
	var sources []string
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.py"))
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata: %v", err)
	}
	var testdata strings.Builder
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		testdata.Write(b)
		testdata.WriteString("\n")
	}
	sources = append(sources, testdata.String())
	rng := rand.New(rand.NewSource(37))
	for len(sources) < 1001 {
		sources = append(sources, randFlattenSource(rng))
	}

	type flattenFunc func(config, *model.Class, []string) (*flatAutomaton, error)
	modes := []struct {
		name      string
		got, want flattenFunc
	}{
		{"union", flatten, refFlatten},
		{"precise", flattenExitAware, refFlattenExitAware},
	}
	checked, gated, pruned := 0, 0, 0
	reports := sha256.New()
	for i, src := range sources {
		classes, reg, err := composites(src)
		if err != nil {
			t.Fatalf("source %d: %v\n%s", i, err, src)
		}
		for _, c := range classes {
			alphabet, err := subsystemAlphabet(c, reg)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range modes {
				cfg := buildConfig([]Option{WithCache(pipeline.New())})
				want, wantErr := mode.want(cfg, c, alphabet)
				got, gotErr := mode.got(cfg, c, alphabet)
				if wantErr != nil || gotErr != nil {
					t.Fatalf("source %d %s %s: errors %v / reference %v", i, c.Name, mode.name, gotErr, wantErr)
				}
				if mode.name == "precise" && hasUnreachableReturn(c) {
					gotDFA, err := got.toDFA(cfg.ctx)
					if err != nil {
						t.Fatal(err)
					}
					wantDFA, err := want.toDFA(cfg.ctx)
					if err != nil {
						t.Fatal(err)
					}
					if !automata.Equivalent(gotDFA, wantDFA) {
						t.Fatalf("source %d %s: pruned flat language differs from the reference\n%s", i, c.Name, src)
					}
					rep, err := Check(c, reg, Precise(), WithCache(pipeline.New()))
					if err != nil {
						t.Fatal(err)
					}
					b, err := json.Marshal(rep)
					if err != nil {
						t.Fatal(err)
					}
					reports.Write(append(b, '\n'))
					checked++
					pruned++
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("source %d %s %s: flat automaton differs from the reference\n%s", i, c.Name, mode.name, src)
				}
				checked++
				for limit := 1; limit <= len(want.edges); limit++ {
					cfg.ctx = budget.With(context.Background(), budget.Limits{MaxNFAStates: limit})
					want, wantErr := mode.want(cfg, c, alphabet)
					got, gotErr := mode.got(cfg, c, alphabet)
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
						t.Fatalf("source %d %s %s at MaxNFAStates %d: %v, reference %v", i, c.Name, mode.name, limit, gotErr, wantErr)
					}
					if gotErr != nil {
						if !errors.Is(gotErr, budget.ErrExceeded) {
							t.Fatalf("source %d %s %s at MaxNFAStates %d: %v is not a budget error", i, c.Name, mode.name, limit, gotErr)
						}
						gated++
					}
				}
			}
		}
	}
	if checked < 2000 || gated == 0 || pruned == 0 {
		t.Fatalf("only %d automata checked, %d gate trips and %d with unreachable returns", checked, gated, pruned)
	}
	if got := hex.EncodeToString(reports.Sum(nil)); got != deadReturnReports {
		t.Errorf("precise reports of the %d composites with unreachable returns hash to %s, want %s", pruned, got, deadReturnReports)
	}
	t.Logf("%d automata, %d gate trips, %d with unreachable returns", checked, gated, pruned)
}

// deadReturnReports is the SHA-256 of the JSON precise reports, one a
// line in test order, of TestFlattenMatchesReference's composites with
// an unreachable return, as the reference exit-aware flattening
// produced them.
const deadReturnReports = "f065418fd45946266eba1a588d589a42214d9cce6ab21e05f8582f994e7c55f2"

// hasUnreachableReturn reports whether some operation of c has a return
// no path reaches.
func hasUnreachableReturn(c *model.Class) bool {
	for _, op := range c.Operations {
		fine := core.ExtractPerExit(op.Method.Program)
		for _, e := range op.Method.Exits {
			if r, ok := fine.ByExit[e.ID]; ok && regex.IsEmptyLanguage(regex.Simplify(r)) {
				return true
			}
		}
	}
	return false
}
