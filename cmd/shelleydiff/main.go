// Command shelleydiff compares two versions of a class's model — the
// software-maintenance workflow §2.2 of the paper motivates ("Shelley
// can check if changes to the class preserve the internal behavior").
// It diffs the usage-protocol languages (and, for composites, the
// flattened subsystem behaviors) of the same class loaded from an old
// and a new set of files, reporting shortest witnesses for behaviors
// that appeared or disappeared.
//
// Usage:
//
//	shelleydiff -class NAME -old OLD.py[,OLD2.py...] -new NEW.py[,NEW2.py...]
//
// Exit status: 0 when the languages are identical, 1 when they differ,
// 2 on usage or load errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	shelley "github.com/shelley-go/shelley"
	"github.com/shelley-go/shelley/internal/automata"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shelleydiff:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("shelleydiff", flag.ContinueOnError)
	className := fs.String("class", "", "class to compare (required)")
	oldFiles := fs.String("old", "", "comma-separated files of the old version (required)")
	newFiles := fs.String("new", "", "comma-separated files of the new version (required)")
	flat := fs.Bool("flat", false, "compare flattened subsystem behaviors instead of the protocol")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *className == "" || *oldFiles == "" || *newFiles == "" {
		return 2, fmt.Errorf("usage: shelleydiff -class NAME -old FILES -new FILES")
	}

	oldDFA, err := loadDFA(*oldFiles, *className, *flat)
	if err != nil {
		return 2, fmt.Errorf("old version: %w", err)
	}
	newDFA, err := loadDFA(*newFiles, *className, *flat)
	if err != nil {
		return 2, fmt.Errorf("new version: %w", err)
	}

	subject := "protocol"
	if *flat {
		subject = "flattened behavior"
	}

	added, addedAny, _ := automata.ShortestDifference(context.Background(), newDFA, oldDFA)
	removed, removedAny, _ := automata.ShortestDifference(context.Background(), oldDFA, newDFA)
	if !addedAny && !removedAny {
		fmt.Fprintf(out, "class %s: %s UNCHANGED\n", *className, subject)
		return 0, nil
	}
	fmt.Fprintf(out, "class %s: %s CHANGED\n", *className, subject)
	if addedAny {
		fmt.Fprintf(out, "  newly allowed:     %s\n", renderTrace(added))
	}
	if removedAny {
		fmt.Fprintf(out, "  no longer allowed: %s\n", renderTrace(removed))
	}
	return 1, nil
}

func loadDFA(files, className string, flat bool) (*shelley.DFA, error) {
	mod, err := shelley.LoadFiles(strings.Split(files, ",")...)
	if err != nil {
		return nil, err
	}
	c, ok := mod.Class(className)
	if !ok {
		return nil, fmt.Errorf("class %q not found (available: %v)", className, mod.Names())
	}
	if flat {
		return c.FlattenedDFA()
	}
	d, err := c.SpecDFA("")
	if err != nil {
		return nil, err
	}
	return d, nil
}

func renderTrace(t []string) string {
	if len(t) == 0 {
		return "(the empty usage)"
	}
	return strings.Join(t, ", ")
}
