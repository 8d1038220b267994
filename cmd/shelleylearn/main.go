// Command shelleylearn infers a class's protocol automaton dynamically:
// it runs Angluin's L* against a simulated instance of the class (the
// stand-in for querying MicroPython on a device) and reports the learned
// DFA together with query statistics, cross-checked against the
// statically extracted model.
//
// Usage:
//
//	shelleylearn -class NAME [-algo lstar|kv] [-conform] [-dot] FILE.py [FILE.py ...]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	shelley "github.com/shelley-go/shelley"
	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/learn"
	"github.com/shelley-go/shelley/internal/viz"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "shelleylearn:", err)
		os.Exit(2)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("shelleylearn", flag.ContinueOnError)
	className := fs.String("class", "", "class to learn (required)")
	dot := fs.Bool("dot", false, "print the learned automaton as DOT")
	algo := fs.String("algo", "lstar", "learning algorithm: lstar or kv")
	conform := fs.Bool("conform", false, "also run the W-method conformance suite against the simulator")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no input files (usage: shelleylearn -class NAME FILE.py ...)")
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

	var res *shelley.LearnResult
	switch *algo {
	case "lstar":
		res, err = c.Learn()
	case "kv":
		res, err = c.LearnKV()
	default:
		return fmt.Errorf("unknown -algo %q (want lstar or kv)", *algo)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "class %s: learned %d-state automaton\n", c.Name(), res.DFA.NumStates())
	fmt.Fprintf(out, "membership queries:  %d\n", res.MembershipQueries)
	fmt.Fprintf(out, "equivalence queries: %d\n", res.EquivalenceQueries)
	fmt.Fprintf(out, "rounds:              %d\n", res.Rounds)

	spec, err := c.SpecDFA("")
	if err != nil {
		return err
	}
	if automata.Equivalent(res.DFA, spec) {
		fmt.Fprintln(out, "cross-check: learned model EQUALS the statically extracted model")
	} else {
		fmt.Fprintln(out, "cross-check: learned model DIFFERS from the statically extracted model")
	}

	if *conform {
		suite, err := c.ConformanceSuite(1)
		if err != nil {
			return err
		}
		witness, ok := learn.Conformance(spec, c.RunTrace, suite)
		fmt.Fprintf(out, "conformance suite:   %d traces\n", len(suite))
		if ok {
			fmt.Fprintln(out, "conformance: simulator PASSES the W-method suite")
		} else {
			fmt.Fprintf(out, "conformance: FAILED on %v\n", witness)
		}
	}

	if *dot {
		fmt.Fprint(out, viz.DFADOT(c.Name()+"_learned", res.DFA))
	}
	return nil
}
