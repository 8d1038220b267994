package ir

import "testing"

func TestHashIgnoresExitID(t *testing.T) {
	// ExitID carries no syntax (String does not print it); the cache key
	// must treat programs that differ only in ExitID as identical.
	a := Seq{First: Call{Label: "f"}, Second: Return{ExitID: 1}}
	b := Seq{First: Call{Label: "f"}, Second: Return{ExitID: 99}}
	if Hash(a) != Hash(b) || fingerprint(a) != fingerprint(b) {
		t.Fatal("ExitID leaked into the content hash")
	}
}

func TestHashDistinguishesStructure(t *testing.T) {
	cases := []struct{ a, b string }{
		{"a()", "a(); skip"},     // language-equal, syntax-distinct
		{"a(); b()", "b(); a()"}, // order
		{"if(*) { a() } else { b() }", "if(*) { b() } else { a() }"},
		{"loop(*) { a() }", "a()"}, // wrapper
		{"skip", "return"},         // leaves
		{"a()", "aa()"},            // label
	}
	for _, c := range cases {
		pa, pb := MustParse(c.a), MustParse(c.b)
		if fingerprint(pa) == fingerprint(pb) {
			t.Errorf("distinct programs %q and %q share a fingerprint", c.a, c.b)
		}
		if Hash(pa) == Hash(pb) {
			t.Errorf("distinct programs %q and %q collide under Hash", c.a, c.b)
		}
	}
}

// TestCanonicalInjectiveOnLabelBoundaries guards the length-prefix: the
// concatenated label bytes of ("a","bc") and ("ab","c") are equal, so
// only the prefix keeps the encodings apart.
func TestCanonicalInjectiveOnLabelBoundaries(t *testing.T) {
	a := NewSeq(NewCall("a"), NewCall("bc"))
	b := NewSeq(NewCall("ab"), NewCall("c"))
	if fingerprint(a) == fingerprint(b) {
		t.Fatal("label boundary ambiguity: a·bc and ab·c share an encoding")
	}
}

// TestHashGolden pins the exact hash values: the pipeline cache promises
// keys stable across processes and Go versions, so any change to the
// canonical encoding must be deliberate (and invalidates nothing at
// runtime, but would silently split warm caches — make it loud).
func TestHashGolden(t *testing.T) {
	cases := []struct {
		src  string
		hash uint64
		fp   string
	}{
		{"skip", 0xaf640e4c86024182, "8de0b3c47f112c59745f717a62693226"},
		{"return", 0xaf640f4c86024335, "8c2574892063f995fdf756bce07f46c1"},
		{"a()", 0xc591219aafa5db8, "de9616651b137426bdb0a8a9604e2a3e"},
		{
			"loop(*) { a(); if(*) { b(); return } else { c() } }",
			0xa33adc78d8490300,
			"8f1d1233d4caf27a0a31fe5c671e84ad",
		},
	}
	for _, c := range cases {
		p := MustParse(c.src)
		if got := Hash(p); got != c.hash {
			t.Errorf("Hash(%q) = %#x, want %#x (canonical encoding changed?)", c.src, got, c.hash)
		}
		if got := fingerprint(p); got != c.fp {
			t.Errorf("fingerprint(%q) = %s, want %s", c.src, got, c.fp)
		}
	}
}

// FuzzHashStability is the key-stability property the memoization layer
// rests on: parsing the same source twice (or its printed round trip)
// must give identical keys, while structurally different programs must
// get distinct keys.
func FuzzHashStability(f *testing.F) {
	for _, s := range []string{
		"", "skip", "return", "a()", "a(); b()", "a(); skip",
		"if(*) { a() } else { skip }",
		"loop(*) { a(); if(*) { b(); return } else { c() } }",
		"if(*) { if(*) { a() } else { b() } } else { c() }",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		// Identical source → identical keys, deterministically.
		q := MustParse(src)
		if Hash(p) != Hash(q) || fingerprint(p) != fingerprint(q) {
			t.Fatalf("two parses of %q disagree on keys", src)
		}
		// The printed round trip is the same tree, hence the same keys.
		r, err := Parse(p.String())
		if err != nil {
			t.Fatalf("printed form %q does not reparse: %v", p.String(), err)
		}
		if fingerprint(r) != fingerprint(p) {
			t.Fatalf("round trip of %q changed the fingerprint", src)
		}
		// Structural mutants whose concrete syntax differs must hash
		// apart: a collision here would alias two programs to one cache
		// entry — a soundness bug, not a performance bug.
		mutants := []Program{
			Seq{First: p, Second: Skip{}},
			Seq{First: Skip{}, Second: p},
			If{Then: p, Else: p},
			Loop{Body: p},
			Seq{First: p, Second: Call{Label: "zz_mut"}},
		}
		for _, m := range mutants {
			if m.String() == p.String() {
				continue
			}
			if fingerprint(m) == fingerprint(p) {
				t.Fatalf("mutant %q shares fingerprint with %q", m, p)
			}
			if Hash(m) == Hash(p) {
				t.Fatalf("mutant %q collides with %q under Hash", m, p)
			}
		}
	})
}

// fingerprint is AppendFingerprint as a string.
func fingerprint(p Program) string { return string(AppendFingerprint(nil, p)) }
