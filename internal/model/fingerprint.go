package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strconv"
	"sync"

	"github.com/shelley-go/shelley/internal/ir"
	"github.com/shelley-go/shelley/internal/lower"
	"github.com/shelley-go/shelley/internal/pytoken"
)

// Fingerprint returns a stable 128-bit content key (32 hex digits) of
// everything the verification pipeline reads from the class: its name,
// decorators, claims, subsystem declarations, and per operation the
// modifiers, lowered body (ir canonical form), exit points (including
// source positions, which diagnostics print), and match sites. Helpers
// are included because the checker reports on them too.
//
// The fingerprint is syntactic, like ir.AppendFingerprint: two classes with
// the same usage language but different bodies get distinct keys, so
// the memoization cache (internal/pipeline) can never alias them. It is
// computed once per class and safe for concurrent use; classes are
// immutable after FromAST.
func (c *Class) Fingerprint() string {
	c.fpOnce.Do(func() { c.fp = fingerprintClass(c) })
	return c.fp
}

// ProtocolFingerprint returns a stable 128-bit content key of the
// class's externally observable protocol surface — exactly what the
// analysis of a dependent composite reads from this class when it is
// used as a subsystem: the class name (diagnostics print it), the
// operations in source order with their initial/final modifiers (the
// protocol automaton is built from them), and per operation the exit
// points' ordered continuation lists (exhaustiveness checking compares
// match cases against them and prints them verbatim).
//
// Method bodies, helpers, claims, match sites, and source positions are
// deliberately excluded: none of them can influence a dependent's
// verification, so an edit confined to them leaves this key — and every
// dependent's cached artifacts — untouched. That projection is what
// turns the fingerprint machinery into an invalidation engine: a
// body-only edit to a subsystem re-verifies the subsystem alone, while
// a protocol edit propagates to its dependents (see depgraph.ClassGraph
// and the root package's Session).
func (c *Class) ProtocolFingerprint() string {
	c.protoOnce.Do(func() { c.protoFP = fingerprintProtocol(c) })
	return c.protoFP
}

// Fingerprint returns a stable 128-bit content key of one operation:
// its name, modifiers, and lowered method (body, exits, match sites).
// It is the method-granularity unit of the diff the root package's
// Session computes between module generations.
func (op *Operation) Fingerprint() string {
	op.fpOnce.Do(func() {
		w := newFPWriter()
		fingerprintOperation(w, op)
		op.fp = w.sum()
	})
	return op.fp
}

func fingerprintProtocol(c *Class) string {
	w := newFPWriter()
	w.str(c.Name)
	w.flag(c.IsSys)
	w.num(len(c.Operations))
	for _, op := range c.Operations {
		w.tag('O')
		w.str(op.Name)
		w.flag(op.Initial)
		w.flag(op.Final)
		w.num(len(op.Method.Exits))
		for _, e := range op.Method.Exits {
			w.tag('E')
			w.num(len(e.Next))
			for _, next := range e.Next {
				w.str(next)
			}
		}
	}
	return w.sum()
}

// fpWriter serializes strings, bools, and counts with length prefixes
// so the byte stream stays injective (no two distinct classes serialize
// identically), into a pooled buffer that sum hashes.
type fpWriter struct{ b *[]byte }

var fpBufs = sync.Pool{New: func() any { return new([]byte) }}

func newFPWriter() fpWriter {
	w := fpWriter{fpBufs.Get().(*[]byte)}
	*w.b = (*w.b)[:0]
	return w
}

// sum returns the first 128 bits of the stream's SHA-256 in hex and
// releases the buffer.
func (w fpWriter) sum() string {
	sum := sha256.Sum256(*w.b)
	fpBufs.Put(w.b)
	return hex.EncodeToString(sum[:16])
}

func (w fpWriter) str(s string) {
	w.num(len(s))
	*w.b = append(*w.b, s...)
}

// pos writes p.String() as str does, without building the string.
func (w fpWriter) pos(p pytoken.Pos) {
	var buf [24]byte
	text := strconv.AppendInt(append(strconv.AppendInt(buf[:0], int64(p.Line), 10), ':'), int64(p.Col), 10)
	w.num(len(text))
	*w.b = append(*w.b, text...)
}

func (w fpWriter) num(n int) {
	*w.b = binary.LittleEndian.AppendUint32(*w.b, uint32(n))
}

func (w fpWriter) flag(b bool) {
	if b {
		w.tag(1)
	} else {
		w.tag(0)
	}
}

func (w fpWriter) tag(t byte) { *w.b = append(*w.b, t) }

func fingerprintClass(c *Class) string {
	w := newFPWriter()

	w.str(c.Name)
	w.flag(c.IsSys)
	w.num(len(c.Claims))
	for _, cl := range c.Claims {
		w.str(cl.Formula)
		w.pos(cl.Pos)
	}
	w.num(len(c.SubsystemNames))
	for _, name := range c.SubsystemNames {
		w.str(name)
		w.str(c.SubsystemTypes[name])
	}
	w.num(len(c.Operations))
	for _, op := range c.Operations {
		w.tag('O')
		fingerprintOperation(w, op)
	}
	w.num(len(c.Helpers))
	for _, helper := range c.Helpers {
		w.tag('H')
		fingerprintOperation(w, helper)
	}
	return w.sum()
}

func fingerprintOperation(w fpWriter, op *Operation) {
	w.str(op.Name)
	w.flag(op.Initial)
	w.flag(op.Final)
	w.flag(op.Annotated)
	fingerprintMethod(w, op.Method)
}

func fingerprintMethod(w fpWriter, m *lower.Method) {
	// The body, prefixed with its length once it is known.
	at := len(*w.b)
	w.num(0)
	*w.b = ir.AppendCanonical(*w.b, m.Program)
	binary.LittleEndian.PutUint32((*w.b)[at:], uint32(len(*w.b)-at-4))
	w.flag(m.AlwaysReturns)
	w.num(len(m.Exits))
	for _, e := range m.Exits {
		w.flag(e.Declared)
		w.flag(e.HasValue)
		w.pos(e.Pos)
		w.num(len(e.Next))
		for _, next := range e.Next {
			w.str(next)
		}
	}
	w.num(len(m.Matches))
	for _, site := range m.Matches {
		w.str(site.Op)
		w.flag(site.Wildcard)
		w.num(len(site.Patterns))
		for _, pattern := range site.Patterns {
			if pattern == nil {
				w.tag('w') // wildcard case
				continue
			}
			w.tag('p')
			w.num(len(pattern))
			for _, label := range pattern {
				w.str(label)
			}
		}
	}
}
