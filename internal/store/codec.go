// Package store implements the disk-backed, content-addressed artifact
// store that lets a restarted shelleyd boot warm: serialized class
// reports and rendered response bodies, keyed by the same
// fingerprint+budget keys as the in-memory pipeline cache, survive the
// process.
//
// Durability is defensive end to end. Every entry is a self-describing
// blob — magic, format version, lengths, key, payload, and a sha256
// trailer over everything before it — written to a temp file, fsynced,
// and atomically renamed into place, so a crash at any instant leaves
// either the previous state or the complete new entry, never a torn
// one that parses. Reads verify the whole frame; anything corrupt,
// truncated, or from an unknown format version is quarantined and
// counted, never served and never fatal. All I/O goes through the FS
// interface so the failure handling is exercised by FaultFS in tests
// instead of trusted.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Entry frame layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "SHST"
//	4       2     format version (currently 1)
//	6       4     key length K
//	10      8     payload length P
//	18      K     key bytes
//	18+K    P     payload bytes
//	18+K+P  32    sha256 over bytes [0, 18+K+P)
const (
	entryMagic   = "SHST"
	entryVersion = 1
	headerSize   = 4 + 2 + 4 + 8
	trailerSize  = sha256.Size

	// maxKeyLen and maxPayloadLen bound what Decode will even attempt
	// to allocate: a corrupt length field must fail fast, not drive a
	// multi-gigabyte allocation.
	maxKeyLen     = 1 << 16
	maxPayloadLen = 1 << 31
)

// ErrCorrupt is wrapped by every Decode failure caused by a damaged
// frame (truncation, bad magic, implausible lengths, checksum
// mismatch). Callers quarantine-and-count on it instead of failing.
var ErrCorrupt = errors.New("store: corrupt entry")

// ErrVersion is wrapped when the frame is well-formed but written by an
// unknown (newer or retired) format version. Such entries are skipped
// like corrupt ones — a downgraded daemon must never misparse a future
// format — but counted under the same corruption metric with a
// distinguishable error.
var ErrVersion = errors.New("store: unsupported entry version")

// Encode frames a key/payload pair as one self-verifying entry blob.
func Encode(key string, payload []byte) []byte {
	buf := make([]byte, headerSize+len(key)+len(payload)+trailerSize)
	copy(buf, entryMagic)
	binary.LittleEndian.PutUint16(buf[4:], entryVersion)
	binary.LittleEndian.PutUint32(buf[6:], uint32(len(key)))
	binary.LittleEndian.PutUint64(buf[10:], uint64(len(payload)))
	copy(buf[headerSize:], key)
	copy(buf[headerSize+len(key):], payload)
	sum := sha256.Sum256(buf[: headerSize+len(key)+len(payload) : headerSize+len(key)+len(payload)])
	copy(buf[headerSize+len(key)+len(payload):], sum[:])
	return buf
}

// Decode verifies and unpacks one entry blob. Any damage — truncation,
// wrong magic, implausible lengths, trailing garbage, checksum
// mismatch — returns an error wrapping ErrCorrupt; a well-formed frame
// from an unknown format version returns one wrapping ErrVersion. The
// returned payload aliases b.
func Decode(b []byte) (key string, payload []byte, err error) {
	if len(b) < headerSize+trailerSize {
		return "", nil, fmt.Errorf("%w: %d bytes is shorter than an empty entry", ErrCorrupt, len(b))
	}
	if string(b[:4]) != entryMagic {
		return "", nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[:4])
	}
	if v := binary.LittleEndian.Uint16(b[4:]); v != entryVersion {
		return "", nil, fmt.Errorf("%w: version %d (this build reads %d)", ErrVersion, v, entryVersion)
	}
	keyLen := int64(binary.LittleEndian.Uint32(b[6:]))
	payloadLen := int64(binary.LittleEndian.Uint64(b[10:]))
	if keyLen > maxKeyLen || payloadLen > maxPayloadLen {
		return "", nil, fmt.Errorf("%w: implausible lengths key=%d payload=%d", ErrCorrupt, keyLen, payloadLen)
	}
	total := int64(headerSize) + keyLen + payloadLen + trailerSize
	if int64(len(b)) != total {
		return "", nil, fmt.Errorf("%w: %d bytes, frame declares %d", ErrCorrupt, len(b), total)
	}
	body := b[: headerSize+keyLen+payloadLen : headerSize+keyLen+payloadLen]
	sum := sha256.Sum256(body)
	if string(sum[:]) != string(b[headerSize+keyLen+payloadLen:]) {
		return "", nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return string(b[headerSize : headerSize+keyLen]), b[headerSize+keyLen : headerSize+keyLen+payloadLen], nil
}
