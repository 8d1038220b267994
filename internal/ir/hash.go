package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Content-addressed hashing of programs. The memoizing analysis cache
// (internal/pipeline) keys every derived artifact — inferred behaviors,
// compiled automata, verification reports — by a stable hash of the IR
// it was computed from, so two loads of the same source share work while
// any structural difference (even a language-preserving one, such as
// `a()` vs `a(); skip`) yields a distinct key. Keys are therefore
// *syntactic*, never semantic: aliasing two different programs to one
// cache entry would be a soundness bug, whereas splitting one language
// across two entries merely costs a recomputation.
//
// The encoding is an injective preorder serialization: every node is
// tagged, tags determine arity, and call labels are length-prefixed, so
// distinct trees never share an encoding. It deliberately excludes
// Return.ExitID, which carries no syntax (String does not print it);
// exit metadata is hashed separately by model.Class.Fingerprint.

// Canonical node tags. Single bytes keep the encoding compact; the
// label length prefix after tagCall makes the stream self-delimiting.
const (
	tagCall   = 'C'
	tagSkip   = 'S'
	tagReturn = 'R'
	tagSeq    = 'Q'
	tagIf     = 'I'
	tagLoop   = 'L'
)

// AppendCanonical appends the injective binary encoding of p to dst and
// returns the extended slice.
func AppendCanonical(dst []byte, p Program) []byte {
	switch p := p.(type) {
	case Call:
		dst = append(dst, tagCall)
		dst = binary.AppendUvarint(dst, uint64(len(p.Label)))
		return append(dst, p.Label...)
	case Skip:
		return append(dst, tagSkip)
	case Return:
		return append(dst, tagReturn)
	case Seq:
		dst = append(dst, tagSeq)
		dst = AppendCanonical(dst, p.First)
		return AppendCanonical(dst, p.Second)
	case If:
		dst = append(dst, tagIf)
		dst = AppendCanonical(dst, p.Then)
		return AppendCanonical(dst, p.Else)
	case Loop:
		dst = append(dst, tagLoop)
		return AppendCanonical(dst, p.Body)
	}
	// Unknown implementations of Program cannot occur (the interface's
	// unexported method closes the set), but stay total.
	return append(dst, '?')
}

// Hash returns a fast 64-bit FNV-1a hash of the canonical encoding of
// p. It is stable across processes and Go versions (no map iteration,
// no per-process seeding), so it is safe to use in persistent keys.
func Hash(p Program) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range AppendCanonical(nil, p) {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// AppendFingerprint appends a 128-bit content fingerprint of p to dst
// as 32 hex digits (the truncated SHA-256 of the canonical encoding). The
// pipeline cache uses it rather than Hash for its keys: at 128 bits,
// accidental collisions between distinct programs are outside the realm
// of reachable workloads, which the differential test layer relies on.
func AppendFingerprint(dst []byte, p Program) []byte {
	var buf [512]byte
	sum := sha256.Sum256(AppendCanonical(buf[:0], p))
	return hex.AppendEncode(dst, sum[:16])
}
