// Package depgraph implements method dependency extraction (§3.1 of the
// paper): a directed graph whose nodes are the entry point of each method
// and every exit point (one per return statement), and whose arcs are the
// ordering constraints induced by `return ["m1", ..., mn]` statements:
//
//   - the entry node of a method links to each of its exit nodes;
//   - each exit node links to the entry node of every method it names.
//
// Fig. 3 of the paper is the dependency graph of Listing 3.1; the viz
// package renders these graphs to DOT.
package depgraph

import (
	"fmt"
	"sort"

	"github.com/shelley-go/shelley/internal/lower"
)

// NodeKind distinguishes entry nodes from exit nodes.
type NodeKind int

const (
	// Entry is the single entry node of a method.
	Entry NodeKind = iota + 1

	// Exit is one return statement of a method.
	Exit
)

// Node is a graph node.
type Node struct {
	Kind   NodeKind
	Method string
	// ExitID is the return statement's index within the method (exit
	// nodes only).
	ExitID int
}

// Label renders the node for diagrams: "open_a" for entries,
// "open_a/exit0" for exits.
func (n Node) Label() string {
	if n.Kind == Entry {
		return n.Method
	}
	return fmt.Sprintf("%s/exit%d", n.Method, n.ExitID)
}

// Graph is a method dependency graph.
type Graph struct {
	nodes   []Node
	adj     [][]int
	entries map[string]int // method -> entry node id
	methods []string       // source order
}

// Build constructs the dependency graph of the given methods. Methods
// named in a return list that are not defined produce an error (the
// "method invocation analysis" of §3 checks definedness).
func Build(methods []*lower.Method) (*Graph, error) {
	g := &Graph{entries: make(map[string]int, len(methods))}

	for _, m := range methods {
		if _, dup := g.entries[m.Name]; dup {
			return nil, fmt.Errorf("depgraph: method %q defined twice", m.Name)
		}
		id := len(g.nodes)
		g.nodes = append(g.nodes, Node{Kind: Entry, Method: m.Name})
		g.adj = append(g.adj, nil)
		g.entries[m.Name] = id
		g.methods = append(g.methods, m.Name)
	}

	for _, m := range methods {
		entry := g.entries[m.Name]
		for _, e := range m.Exits {
			exitID := len(g.nodes)
			g.nodes = append(g.nodes, Node{Kind: Exit, Method: m.Name, ExitID: e.ID})
			g.adj = append(g.adj, nil)
			g.adj[entry] = append(g.adj[entry], exitID)
			for _, next := range e.Next {
				target, ok := g.entries[next]
				if !ok {
					return nil, fmt.Errorf("depgraph: method %q returns undefined method %q", m.Name, next)
				}
				g.adj[exitID] = append(g.adj[exitID], target)
			}
		}
	}
	return g, nil
}

// NumNodes returns the number of nodes (entries plus exits).
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Node returns the node with the given id.
func (g *Graph) Node(id int) Node { return g.nodes[id] }

// ClassGraph is the class-level companion of the method graph, used by
// incremental re-verification to propagate invalidation between module
// generations: an arc runs from every composite class to each class it
// declares as a subsystem, so the reverse closure of a changed class is
// exactly the set of classes whose analysis could observe the change.
// Propagation is driven by protocol fingerprints (model.Class
// .ProtocolFingerprint): a dependent's analysis reads nothing deeper
// than a subsystem's protocol surface, so only protocol-level changes
// need to travel these arcs at all.
type ClassGraph struct {
	dependents map[string][]string // class -> classes that declare it as a subsystem
}

// BuildClasses constructs the class graph from the uses relation:
// uses[c] lists the class names c declares as subsystems (duplicates
// are fine; unknown names are kept, so a dependent of a class that was
// removed from the module is still reachable from the removed name).
func BuildClasses(uses map[string][]string) *ClassGraph {
	g := &ClassGraph{dependents: make(map[string][]string, len(uses))}
	for c, subs := range uses {
		for _, sub := range subs {
			g.dependents[sub] = append(g.dependents[sub], c)
		}
	}
	return g
}

// Dependents returns every class whose analysis could observe a change
// to any of the given classes: the given classes themselves plus all
// transitive reverse-dependents, sorted. It is the invalidation
// frontier of a protocol-level edit.
func (g *ClassGraph) Dependents(changed []string) []string {
	seen := make(map[string]struct{}, len(changed))
	stack := append([]string(nil), changed...)
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, ok := seen[c]; ok {
			continue
		}
		seen[c] = struct{}{}
		stack = append(stack, g.dependents[c]...)
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Edge is a directed arc, used by renderers.
type Edge struct{ From, To int }

// Edges returns all arcs in deterministic order.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for from, succs := range g.adj {
		for _, to := range succs {
			out = append(out, Edge{From: from, To: to})
		}
	}
	return out
}
