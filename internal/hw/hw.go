// Package hw emulates the microcontroller peripherals the paper's
// listings drive: general-purpose I/O pins on a board. The model
// analysis deliberately ignores pin values (§2), but the concrete
// executor (internal/pyexec) runs annotated classes against these pins,
// so examples and tests can observe the *physical* consequence of a
// protocol bug — e.g. a control pin left high when a valve object is
// abandoned.
package hw

import (
	"fmt"
	"sort"
	"sync"
)

// Mode is a pin direction.
type Mode int

const (
	// In is an input pin: the environment sets it, programs read it.
	In Mode = iota + 1

	// Out is an output pin: programs drive it.
	Out
)

// String names the mode like the MicroPython constants.
func (m Mode) String() string {
	switch m {
	case In:
		return "IN"
	case Out:
		return "OUT"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Board is a set of numbered pins. The zero value is not usable; call
// NewBoard. Boards are safe for concurrent use (a simulation may drive
// devices from several goroutines).
type Board struct {
	mu   sync.Mutex
	pins map[int]*Pin
}

// NewBoard returns an empty board.
func NewBoard() *Board {
	return &Board{pins: make(map[int]*Pin)}
}

// Pin returns the pin with the given id, creating it with the mode on
// first use. Re-acquiring an existing pin with a different mode
// reconfigures it (as MicroPython's Pin constructor does).
func (b *Board) Pin(id int, mode Mode) *Pin {
	b.mu.Lock()
	defer b.mu.Unlock()
	p, ok := b.pins[id]
	if !ok {
		p = &Pin{id: id, board: b}
		b.pins[id] = p
	}
	p.mode = mode
	return p
}

// SetInput drives an input pin from the environment (e.g. "the valve's
// status sensor reads open"). It creates the pin as In if absent.
func (b *Board) SetInput(id int, high bool) {
	p := b.Pin(id, In)
	b.mu.Lock()
	defer b.mu.Unlock()
	p.value = high
}

// Snapshot returns the current level of every pin, keyed by id.
func (b *Board) Snapshot() map[int]bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[int]bool, len(b.pins))
	for id, p := range b.pins {
		out[id] = p.value
	}
	return out
}

// HighPins returns the ids of pins currently high, sorted — convenient
// for test assertions ("only pin 29 may be high now").
func (b *Board) HighPins() []int {
	snap := b.Snapshot()
	var out []int
	for id, high := range snap {
		if high {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// Pin is one GPIO pin.
type Pin struct {
	id    int
	mode  Mode
	value bool
	board *Board
}

// On drives an output pin high. Driving an input pin is an error (a
// wiring bug worth surfacing rather than masking).
func (p *Pin) On() error { return p.set(true) }

// Off drives an output pin low.
func (p *Pin) Off() error { return p.set(false) }

func (p *Pin) set(high bool) error {
	p.board.mu.Lock()
	defer p.board.mu.Unlock()
	if p.mode != Out {
		return fmt.Errorf("hw: pin %d is %v; cannot drive it", p.id, p.mode)
	}
	p.value = high
	return nil
}

// Value reads the pin level.
func (p *Pin) Value() bool {
	p.board.mu.Lock()
	defer p.board.mu.Unlock()
	return p.value
}
