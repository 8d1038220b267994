package automata

import (
	"encoding/json"
	"fmt"
)

// dfaWire is the serialized form of a DFA: alphabet-ordered transition
// rows with -1 for absent edges, exactly the in-memory layout. The
// start state is always 0 on the wire (Marshal renumbers when needed),
// matching the invariant every constructor in this package maintains.
type dfaWire struct {
	Alphabet []string `json:"alphabet"`
	Accept   []bool   `json:"accept"`
	Trans    [][]int  `json:"trans"`
}

// Marshal encodes the DFA as deterministic JSON for persistence (the
// mined-model store) and transport. Unreachable states are dropped when
// the start state is not 0, so Unmarshal(Marshal(d)) is always
// language-equivalent to d.
func Marshal(d *DFA) ([]byte, error) {
	if d == nil {
		return nil, fmt.Errorf("automata: marshal nil DFA")
	}
	if d.start != 0 {
		d = d.Reachable()
	}
	rows := make([][]int, d.NumStates())
	for s := range rows {
		rows[s] = d.row(s)
	}
	return json.Marshal(dfaWire{Alphabet: d.alphabet, Accept: d.accept, Trans: rows})
}

// Unmarshal decodes a DFA encoded by Marshal, validating shape and
// transition targets so hostile or corrupt store bytes surface as
// errors instead of out-of-range panics later.
func Unmarshal(data []byte) (*DFA, error) {
	var w dfaWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("automata: decoding DFA: %w", err)
	}
	if len(w.Accept) != len(w.Trans) {
		return nil, fmt.Errorf("automata: decoding DFA: %d accept flags for %d states", len(w.Accept), len(w.Trans))
	}
	if len(w.Accept) == 0 {
		return nil, fmt.Errorf("automata: decoding DFA: no states")
	}
	d := NewDFA(w.Alphabet)
	if len(d.alphabet) != len(w.Alphabet) {
		// NewDFA sorts and deduplicates; wire symbols must already be
		// canonical or symbol indexes below would be misaligned.
		return nil, fmt.Errorf("automata: decoding DFA: alphabet not sorted and unique")
	}
	for i, sym := range w.Alphabet {
		if d.alphabet[i] != sym {
			return nil, fmt.Errorf("automata: decoding DFA: alphabet not sorted and unique")
		}
	}
	d.SetAccepting(0, w.Accept[0])
	for s := 1; s < len(w.Accept); s++ {
		d.AddState(w.Accept[s])
	}
	for s, row := range w.Trans {
		if len(row) != len(w.Alphabet) {
			return nil, fmt.Errorf("automata: decoding DFA: state %d has %d transitions for %d symbols", s, len(row), len(w.Alphabet))
		}
		for si, to := range row {
			if to < -1 || to >= len(w.Trans) {
				return nil, fmt.Errorf("automata: decoding DFA: state %d symbol %d targets out-of-range state %d", s, si, to)
			}
			if to >= 0 {
				d.setTransition(s, si, to)
			}
		}
	}
	return d, nil
}
