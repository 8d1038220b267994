// Command shelleyviz renders the diagrams of the paper as Graphviz DOT:
// the Fig. 1-style protocol diagram, the Fig. 3-style method dependency
// graph, the specification DFA, and a composite's flattened behavior DFA.
//
// Usage:
//
//	shelleyviz -class NAME [-kind protocol|deps|spec|flat] FILE.py [FILE.py ...]
//
// The DOT document is written to stdout; pipe it to `dot -Tsvg` to
// produce an image.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	shelley "github.com/shelley-go/shelley"
	"github.com/shelley-go/shelley/internal/viz"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "shelleyviz:", err)
		os.Exit(2)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("shelleyviz", flag.ContinueOnError)
	className := fs.String("class", "", "class to render (required)")
	kind := fs.String("kind", "protocol", "diagram kind: protocol, deps, spec, or flat")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no input files (usage: shelleyviz -class NAME [-kind protocol|deps|spec|flat] FILE.py ...)")
	}
	if *className == "" {
		return fmt.Errorf("-class is required")
	}

	mod, err := shelley.LoadFiles(fs.Args()...)
	if err != nil {
		return err
	}
	c, ok := mod.Class(*className)
	if !ok {
		return fmt.Errorf("class %q not found (available: %v)", *className, mod.Names())
	}

	switch *kind {
	case "protocol":
		fmt.Fprint(out, c.ProtocolDiagram())
	case "deps":
		dot, err := c.DependencyDiagram()
		if err != nil {
			return err
		}
		fmt.Fprint(out, dot)
	case "spec":
		d, err := c.SpecDFA("")
		if err != nil {
			return err
		}
		fmt.Fprint(out, viz.DFADOT(c.Name(), d))
	case "flat":
		d, err := c.FlattenedDFA()
		if err != nil {
			return err
		}
		fmt.Fprint(out, viz.DFADOT(c.Name()+"_flat", d))
	default:
		return fmt.Errorf("unknown -kind %q (want protocol, deps, spec, or flat)", *kind)
	}
	return nil
}
