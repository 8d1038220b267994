package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Generator parameters. Every run records them, with the reason for
// each, in its result file (see genParams).
const (
	// poolSize is the number of driver classes that modules include
	// verbatim: fleets reuse one driver under many composites, so about
	// half of all base classes repeat across modules.
	poolSize = 16

	// poolSeed fixes the pool independently of -seed, so every seed
	// draws on the same drivers.
	poolSeed = 16

	// poolShare is the chance that a base-class slot takes a pool driver.
	poolShare = 0.5

	// minClasses and maxClasses bound the classes of one module.
	minClasses, maxClasses = 3, 6

	// paperEvery makes one module in about this many embed the paper's
	// Valve with BadSector or GoodSector (and sometimes Sector).
	paperEvery = 16

	// sloppyShare is the share of composites that ignore their
	// subsystems' protocols, so a fair share of modules fail
	// verification and the counterexample search runs.
	sloppyShare = 0.2

	// coldDistinct is the number of distinct module bodies a cold-check
	// run draws; request i sends body i mod coldDistinct with a trailer
	// comment naming i, so every request is a module never seen before.
	coldDistinct = 2048

	// warmModules is the resident working set of warm-hit, well under
	// the daemon's 256-module bound so nothing is evicted.
	warmModules = 64

	// fpOnlyShare is the share of warm-hit requests that send only the
	// fingerprint. shelleyd -selfcheck, the repository's own mixed load,
	// sends by-source and fingerprint-only checks one to one.
	fpOnlyShare = 0.5

	// classShare and preciseShare are the shares of warm-hit requests
	// that check one class, and that use precise mode. No traffic in the
	// repository gives these shares: shelleyc and shelleyd -selfcheck
	// send whole-module union checks unless the user passes -class or
	// -precise. A quarter keeps each kind in the mix as a minority.
	classShare, preciseShare = 0.25, 0.25

	// editComposites is the number of composites over the one base class
	// of an edit-loop module (13 classes in all).
	editComposites = 12

	// editSessions is the number of watch sessions each edit-loop worker
	// owns and edits in turn: the cost of a round depends on the module
	// the seed draws, and a run over many modules measures their mean.
	editSessions = 24

	// editBaseSeed fixes the base class of each edit-loop session slot
	// independently of -seed. The base class's shape sets the cost of all
	// 13 classes of a module, so drawing it per seed moved edit-loop's
	// throughput by about 12% from seed to seed; the seed still draws the
	// 12 composites of every module and every edit.
	editBaseSeed = 1 << 20

	// protocolEvery makes every this-many-th edit-loop round edit the
	// base class's protocol, which invalidates all its dependents.
	protocolEvery = 8
)

// genParams lists the generator parameters and their reasons for the
// result stamp.
func genParams() map[string]any {
	return map[string]any{
		"pool_size":       []any{poolSize, "fleets reuse one driver class under many composites"},
		"pool_seed":       []any{poolSeed, "the pool is the same for every -seed"},
		"pool_share":      []any{poolShare, "about half the base classes come verbatim from the pool"},
		"classes":         []any{[]int{minClasses, maxClasses}, "a module of 3-6 classes keeps every compute layer busy per request"},
		"paper_every":     []any{paperEvery, "mixes the paper's Valve, BadSector, GoodSector and Sector into the stream"},
		"sloppy_share":    []any{sloppyShare, "some composites fail verification, so the counterexample search runs"},
		"cold_distinct":   []any{coldDistinct, "distinct bodies per run; a trailer comment makes every request new"},
		"warm_modules":    []any{warmModules, "resident set well under the 256-module bound, so nothing is evicted"},
		"fp_only_share":   []any{fpOnlyShare, "shelleyd -selfcheck sends by-source and fingerprint-only checks one to one"},
		"class_share":     []any{classShare, "no measured basis: -class is opt-in in shelleyc, so single-class checks are a minority"},
		"precise_share":   []any{preciseShare, "no measured basis: -precise is opt-in in shelleyc, so precise checks are a minority"},
		"edit_composites": []any{editComposites, "12 composites over one base class: 13 classes per watch module"},
		"edit_base_seed":  []any{editBaseSeed, "each session slot has the same base class for every -seed, so the seed does not pick cheap or costly modules"},
		"edit_sessions":   []any{editSessions, "sessions per worker, each on its own module, so one run averages over many modules"},
		"protocol_every":  []any{protocolEvery, "every 8th round edits the base protocol and invalidates its dependents"},
	}
}

// opVocab names base-class operations.
var opVocab = []string{"start", "read", "write", "stop", "reset", "poll", "flush", "arm", "fire", "park"}

// baseOp is one operation of a base class: its modifiers and, per exit
// point, the operations that may follow.
type baseOp struct {
	name           string
	initial, final bool
	exits          [][]string
}

// baseClass is a generated (or paper) base class.
type baseClass struct {
	name   string
	ops    []baseOp
	source string
	pooled bool
}

func (b *baseClass) op(name string) *baseOp {
	for i := range b.ops {
		if b.ops[i].name == name {
			return &b.ops[i]
		}
	}
	return nil
}

func (b *baseClass) initials() []string {
	var out []string
	for _, op := range b.ops {
		if op.initial {
			out = append(out, op.name)
		}
	}
	return out
}

// after returns the operations allowed after op under any exit.
func (b *baseClass) after(op string) []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range b.op(op).exits {
		for _, n := range e {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// corpus is the paper's case study, read from the repository's
// testdata directory.
type corpus struct {
	valve, bad, good, sector string
}

func loadCorpus(dir string) (corpus, error) {
	read := func(name string) (string, error) {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return "", fmt.Errorf("reading paper corpus: %w", err)
		}
		return string(b), nil
	}
	var c corpus
	var err error
	if c.valve, err = read("valve.py"); err != nil {
		return c, err
	}
	if c.bad, err = read("badsector.py"); err != nil {
		return c, err
	}
	if c.good, err = read("goodsector.py"); err != nil {
		return c, err
	}
	c.sector, err = read("sector.py")
	return c, err
}

// valveClass is Listing 2.1 with its protocol spelled out for the walk
// generator; the source is the file verbatim.
func valveClass(src string) baseClass {
	return baseClass{
		name: "Valve",
		ops: []baseOp{
			{name: "test", initial: true, exits: [][]string{{"open"}, {"clean"}}},
			{name: "open", exits: [][]string{{"close"}}},
			{name: "close", final: true, exits: [][]string{{"test"}}},
			{name: "clean", final: true, exits: [][]string{{"test"}}},
		},
		source: src,
		pooled: true,
	}
}

// generator draws modules from one seed.
type generator struct {
	rng   *rand.Rand
	paper corpus
	pool  []baseClass
}

func newGenerator(seed int64, paper corpus) *generator {
	pool := []baseClass{valveClass(paper.valve)}
	prng := rand.New(rand.NewSource(poolSeed))
	for i := 1; i < poolSize; i++ {
		b := randBase(prng, fmt.Sprintf("Drv%d", i))
		b.pooled = true
		pool = append(pool, b)
	}
	return &generator{rng: rand.New(rand.NewSource(seed)), paper: paper, pool: pool}
}

// randBase draws a base class of 2-4 operations; about two in five
// operations have two exit points, which composites must match on.
func randBase(rng *rand.Rand, name string) baseClass {
	n := 2 + rng.Intn(3)
	perm := rng.Perm(len(opVocab))
	b := baseClass{name: name}
	names := make([]string, n)
	for i := range names {
		names[i] = opVocab[perm[i]]
	}
	subset := func() []string {
		k := 1 + rng.Intn(2)
		p := rng.Perm(n)
		out := make([]string, 0, k)
		for _, j := range p[:k] {
			out = append(out, names[j])
		}
		sort.Strings(out)
		return out
	}
	// The first exit of operation i always allows operation i+1 (the
	// last wraps to the first), so every operation is reachable and a
	// final one is reachable from each: the class itself verifies.
	anyFinal := false
	for i, nm := range names {
		op := baseOp{name: nm, initial: i == 0 || rng.Intn(4) == 0, final: rng.Intn(2) == 0}
		if i == n-1 && !anyFinal {
			op.final = true
		}
		anyFinal = anyFinal || op.final
		e0 := subset()
		if succ := names[(i+1)%n]; !contains(e0, succ) {
			e0 = append(e0[:len(e0)-1], succ)
			sort.Strings(e0)
		}
		if i == n-1 && op.final && rng.Intn(4) == 0 {
			e0 = []string{}
		}
		op.exits = [][]string{e0}
		if e1 := subset(); rng.Intn(5) < 2 && len(e0) > 0 && strings.Join(e0, ",") != strings.Join(e1, ",") {
			op.exits = append(op.exits, e1)
		}
		b.ops = append(b.ops, op)
	}
	b.source = renderBase(rng, b)
	return b
}

func decorator(initial, final bool) string {
	switch {
	case initial && final:
		return "@op_initial_final"
	case initial:
		return "@op_initial"
	case final:
		return "@op_final"
	}
	return "@op"
}

func quoteList(names []string) string {
	q := make([]string, len(names))
	for i, n := range names {
		q[i] = fmt.Sprintf("%q", n)
	}
	return "[" + strings.Join(q, ", ") + "]"
}

func renderBase(rng *rand.Rand, b baseClass) string {
	var s strings.Builder
	fmt.Fprintf(&s, "@sys\nclass %s:\n    def __init__(self):\n        self.pin = Pin(%d, OUT)\n", b.name, 2+rng.Intn(30))
	for _, op := range b.ops {
		fmt.Fprintf(&s, "\n    %s\n    def %s(self):\n", decorator(op.initial, op.final), op.name)
		if len(op.exits) == 2 {
			fmt.Fprintf(&s, "        if self.pin.value():\n            return %s\n        else:\n            return %s\n",
				quoteList(op.exits[0]), quoteList(op.exits[1]))
			continue
		}
		fmt.Fprintf(&s, "        self.pin.on()\n        return %s\n", quoteList(op.exits[0]))
	}
	return s.String()
}

// subsystem is one field of a composite and the base class behind it.
type subsystem struct {
	field string
	base  *baseClass
}

// walker emits composite method bodies that follow (or, when sloppy,
// ignore) the subsystems' protocols.
type walker struct {
	rng    *rand.Rand
	sloppy bool
	lines  []string
	// allowed and final track each subsystem's protocol position;
	// closed marks a subsystem whose usage ended inside a match.
	allowed map[string][]string
	final   map[string]bool
	closed  map[string]bool
	// slots records the line index and operation of every plain call
	// emitted at the top level of a method body (edit-loop edits them).
	slots []slot
}

type slot struct {
	line  int
	field string
	op    string
}

func (w *walker) emit(indent int, format string, args ...any) {
	w.lines = append(w.lines, strings.Repeat("    ", indent)+fmt.Sprintf(format, args...))
}

func pick(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }

// pathToFinal finds the shortest call sequence from the allowed set to
// a final operation, following the union of exits; nil if none within
// four calls.
func pathToFinal(b *baseClass, allowed []string) []string {
	type node struct {
		op   string
		path []string
	}
	var frontier []node
	seen := map[string]bool{}
	for _, op := range allowed {
		frontier = append(frontier, node{op, []string{op}})
		seen[op] = true
	}
	for depth := 0; depth < 4 && len(frontier) > 0; depth++ {
		var next []node
		for _, n := range frontier {
			if b.op(n.op).final {
				return n.path
			}
			for _, m := range b.after(n.op) {
				if !seen[m] {
					seen[m] = true
					next = append(next, node{m, append(append([]string(nil), n.path...), m)})
				}
			}
		}
		frontier = next
	}
	return nil
}

// call emits one top-level step on subsystem s.
func (w *walker) call(indent int, s subsystem) {
	b := s.base
	if w.sloppy {
		op := b.ops[w.rng.Intn(len(b.ops))]
		switch w.rng.Intn(4) {
		case 0:
			w.emit(indent, "if self.ready():")
			w.emit(indent+1, "self.%s.%s()", s.field, op.name)
		case 1:
			w.emit(indent, "while self.busy():")
			w.emit(indent+1, "self.%s.%s()", s.field, op.name)
		default:
			w.slots = append(w.slots, slot{len(w.lines), s.field, op.name})
			w.emit(indent, "self.%s.%s()", s.field, op.name)
		}
		w.allowed[s.field] = b.after(op.name)
		w.final[s.field] = op.final
		return
	}
	allowed := w.allowed[s.field]
	if len(allowed) == 0 {
		return
	}
	name := pick(w.rng, allowed)
	op := b.op(name)
	if len(op.exits) == 2 && w.rng.Intn(10) < 7 {
		w.emit(indent, "match self.%s.%s():", s.field, name)
		for _, exit := range op.exits {
			w.emit(indent+1, "case %s:", quoteList(exit))
			n := len(w.lines)
			w.finish(indent+2, s, exit, op.final)
			if len(w.lines) == n {
				w.emit(indent+2, "pass")
			}
		}
		w.closed[s.field] = true
		return
	}
	w.slots = append(w.slots, slot{len(w.lines), s.field, name})
	w.emit(indent, "self.%s.%s()", s.field, name)
	w.allowed[s.field] = b.after(name)
	w.final[s.field] = op.final
}

// finish drives s from the allowed set to a final operation with plain
// calls, when such a path exists.
func (w *walker) finish(indent int, s subsystem, allowed []string, final bool) {
	if final && w.rng.Intn(2) == 0 {
		return
	}
	for _, op := range pathToFinal(s.base, allowed) {
		w.emit(indent, "self.%s.%s()", s.field, op)
	}
}

// composite renders a composite class over subs with 1-3 chained
// operations and 0-2 claims. It returns the source and the walker's
// slots (line indexes into the returned source). Claims of a
// protocol-following composite mostly hold: they constrain operations
// it never calls ("G (!y)", "(!y) W x").
func composite(rng *rand.Rand, name string, subs []subsystem, sloppy bool) (string, []slot) {
	w := &walker{
		rng: rng, sloppy: sloppy,
		allowed: map[string][]string{}, final: map[string]bool{}, closed: map[string]bool{},
	}
	for _, s := range subs {
		w.allowed[s.field] = s.base.initials()
		w.final[s.field] = true
	}
	nOps := 1 + rng.Intn(3)
	for i := 0; i < nOps; i++ {
		w.emit(0, "")
		w.emit(1, "%s", decorator(i == 0, i == nOps-1))
		w.emit(1, "def go%d(self):", i)
		for s, steps := 0, 1+rng.Intn(3); s < steps; s++ {
			sub := subs[rng.Intn(len(subs))]
			if !w.closed[sub.field] {
				w.call(2, sub)
			}
		}
		if i == nOps-1 {
			for _, sub := range subs {
				if !w.closed[sub.field] && !w.final[sub.field] && !(sloppy && rng.Intn(2) == 0) {
					w.finish(2, sub, w.allowed[sub.field], false)
				}
			}
			w.emit(2, "return []")
		} else {
			w.emit(2, "return [\"go%d\"]", i+1)
		}
	}

	called := map[string]bool{}
	for _, l := range w.lines {
		t := strings.TrimPrefix(strings.TrimSpace(l), "match ")
		if rest, ok := strings.CutPrefix(t, "self."); ok {
			if atom, _, ok := strings.Cut(rest, "("); ok {
				called[atom] = true
			}
		}
	}
	var atoms, uncalled []string
	for _, s := range subs {
		for _, op := range s.base.ops {
			a := s.field + "." + op.name
			atoms = append(atoms, a)
			if !called[a] {
				uncalled = append(uncalled, a)
			}
		}
	}
	var head []string
	for i, n := 0, rng.Intn(3); i < n; i++ {
		a, b := pick(rng, atoms), pick(rng, atoms)
		f := "(!" + a + ") W " + b
		switch {
		case !sloppy && rng.Intn(5) < 4 && len(uncalled) > 0:
			if rng.Intn(2) == 0 {
				f = "G (!" + pick(rng, uncalled) + ")"
			} else {
				f = "(!" + pick(rng, uncalled) + ") W " + b
			}
		case rng.Intn(2) == 0:
			f = "G (" + a + " -> F " + b + ")"
		}
		head = append(head, fmt.Sprintf("@claim(%q)", f))
	}
	fields := make([]string, len(subs))
	for i, s := range subs {
		fields[i] = s.field
	}
	head = append(head, "@sys("+quoteList(fields)+")", "class "+name+":", "    def __init__(self):")
	for _, s := range subs {
		head = append(head, fmt.Sprintf("        self.%s = %s()", s.field, s.base.name))
	}
	for i := range w.slots {
		w.slots[i].line += len(head)
	}
	return strings.Join(append(head, w.lines...), "\n") + "\n", w.slots
}

// module is one generated source with its bookkeeping.
type module struct {
	source  string
	classes []string
	focus   string // the class single-class requests name
	bases   int
	pooled  int
}

// module draws one module of 3-6 classes: base classes first (pool
// drivers before fresh ones), then composites over them.
func (g *generator) module() module {
	rng := g.rng
	if rng.Intn(paperEvery) == 0 {
		return g.paperModule()
	}
	total := minClasses + rng.Intn(maxClasses-minClasses+1)
	nb := 1 + rng.Intn(total-1)
	if nb > 3 {
		nb = 3
	}
	var m module
	var bases []*baseClass
	used := map[int]bool{}
	var fresh []*baseClass
	for i := 0; i < nb; i++ {
		if rng.Float64() < poolShare {
			k := rng.Intn(poolSize)
			if !used[k] {
				used[k] = true
				bases = append(bases, &g.pool[k])
				continue
			}
		}
		b := randBase(rng, fmt.Sprintf("Dev%d", len(fresh)+1))
		fresh = append(fresh, &b)
	}
	bases = append(bases, fresh...)
	var parts []string
	for _, b := range bases {
		parts = append(parts, b.source)
		m.classes = append(m.classes, b.name)
		m.bases++
		if b.pooled {
			m.pooled++
		}
	}
	for i := 0; i < total-nb; i++ {
		src, _ := composite(rng, fmt.Sprintf("Ctl%d", i+1), g.subsystems(bases), rng.Float64() < sloppyShare)
		parts = append(parts, src)
		m.classes = append(m.classes, fmt.Sprintf("Ctl%d", i+1))
	}
	m.source = strings.Join(parts, "\n")
	m.focus = m.classes[len(m.classes)-1]
	return m
}

func (g *generator) subsystems(bases []*baseClass) []subsystem {
	subs := []subsystem{{field: "a", base: bases[g.rng.Intn(len(bases))]}}
	if g.rng.Intn(2) == 0 {
		subs = append(subs, subsystem{field: "b", base: bases[g.rng.Intn(len(bases))]})
	}
	return subs
}

// paperModule embeds the paper's case study: Valve with BadSector or
// GoodSector, sometimes Sector, and up to two generated composites
// over Valve.
func (g *generator) paperModule() module {
	rng := g.rng
	valve := &g.pool[0]
	m := module{bases: 1, pooled: 1}
	parts := []string{g.paper.valve}
	m.classes = append(m.classes, "Valve")
	if rng.Intn(2) == 0 {
		parts = append(parts, g.paper.bad)
		m.classes = append(m.classes, "BadSector")
	} else {
		parts = append(parts, g.paper.good)
		m.classes = append(m.classes, "GoodSector")
	}
	if rng.Intn(2) == 0 {
		parts = append(parts, g.paper.sector)
		m.classes = append(m.classes, "Sector")
	}
	for i, n := 0, rng.Intn(3); i < n || len(m.classes) < minClasses; i++ {
		src, _ := composite(rng, fmt.Sprintf("Ctl%d", i+1), g.subsystems([]*baseClass{valve}), rng.Float64() < sloppyShare)
		parts = append(parts, src)
		m.classes = append(m.classes, fmt.Sprintf("Ctl%d", i+1))
	}
	m.source = strings.Join(parts, "\n")
	m.focus = m.classes[1]
	return m
}

// coldSource is the body of cold-check request i: a module body with a
// trailer comment that makes its fingerprint new.
func coldSource(bodies []module, seed int64, i int) string {
	return bodies[i%len(bodies)].source + fmt.Sprintf("# request %d-%d\n", seed, i)
}

// sharedRatio is the share of base classes that are pool drivers.
func sharedRatio(mods []module) float64 {
	var bases, pooled int
	for _, m := range mods {
		bases += m.bases
		pooled += m.pooled
	}
	if bases == 0 {
		return 0
	}
	return float64(pooled) / float64(bases)
}

// editModule is one watch session's module: a base class Dev and
// editComposites composites over it, kept as lines so an edit rewrites
// one line in place and every other exit point keeps its position.
type editModule struct {
	rng     *rand.Rand
	lines   []string
	baseOps []string
	auxLine int
	// slots[c] are the editable call lines of composite c.
	slots [][]slot
	round int
}

// newEditModule builds the module of session number idx. Its base class
// depends on idx alone (see editBaseSeed); seed draws the composites
// and the edits.
func newEditModule(seed int64, idx int) *editModule {
	brng := rand.New(rand.NewSource(editBaseSeed + int64(idx)))
	var base baseClass
	for {
		base = randBase(brng, "Dev")
		if len(base.ops) >= 3 {
			break
		}
	}
	rng := rand.New(rand.NewSource(seed))
	e := &editModule{rng: rng}
	for _, op := range base.ops {
		e.baseOps = append(e.baseOps, op.name)
	}
	// The aux operation is initial and final and nothing calls it; a
	// protocol edit renames it, which changes Dev's protocol fingerprint
	// without moving any line.
	e.lines = strings.Split(strings.TrimSuffix(base.source, "\n"), "\n")
	e.lines = append(e.lines, "", "    @op_initial_final")
	e.auxLine = len(e.lines)
	e.lines = append(e.lines, "    def aux0(self):", "        return []")
	for c := 0; c < editComposites; c++ {
		var src string
		var slots []slot
		for len(slots) == 0 {
			// Every composite keeps at least one plain call to edit.
			src, slots = composite(rng, fmt.Sprintf("C%d", c+1), []subsystem{{field: "d", base: &base}}, rng.Float64() < sloppyShare)
		}
		off := len(e.lines) + 1
		e.lines = append(e.lines, "")
		e.lines = append(e.lines, strings.Split(strings.TrimSuffix(src, "\n"), "\n")...)
		for i := range slots {
			slots[i].line += off
		}
		e.slots = append(e.slots, slots)
	}
	return e
}

func (e *editModule) source() string { return strings.Join(e.lines, "\n") + "\n" }

// next applies the next round's edit and returns the new source and
// whether the edit touched the base class's protocol. Round r edits
// composite r mod 12 (a body edit), except every protocolEvery-th
// round, which renames Dev's aux operation.
func (e *editModule) next() (string, bool) {
	e.round++
	if e.round%protocolEvery == 0 {
		e.lines[e.auxLine] = fmt.Sprintf("    def aux%d(self):", e.round/protocolEvery)
		return e.source(), true
	}
	slots := e.slots[e.round%editComposites]
	s := &slots[e.rng.Intn(len(slots))]
	op := s.op
	for op == s.op {
		op = pick(e.rng, e.baseOps)
	}
	s.op = op
	line := e.lines[s.line]
	indent := line[:len(line)-len(strings.TrimLeft(line, " "))]
	e.lines[s.line] = fmt.Sprintf("%sself.%s.%s()", indent, s.field, op)
	return e.source(), false
}
