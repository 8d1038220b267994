package store

import (
	"bytes"
	"errors"
	"testing"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []struct {
		key     string
		payload string
	}{
		{"k", "v"},
		{"", ""},
		{"check\x00sha256:abc\x00Class\x00true", `{"ok":true}`},
		{string(bytes.Repeat([]byte{0xff}, 300)), string(bytes.Repeat([]byte("payload"), 1000))},
	}
	for _, c := range cases {
		blob := Encode(c.key, []byte(c.payload))
		key, payload, err := Decode(blob)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if key != c.key || string(payload) != c.payload {
			t.Errorf("round trip mismatch: key %q payload %q", key, payload)
		}
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	blob := Encode("some/key", []byte("some payload worth protecting"))
	check := func(name string, b []byte, want error) {
		t.Helper()
		if _, _, err := Decode(b); !errors.Is(err, want) {
			t.Errorf("%s: err = %v, want %v", name, err, want)
		}
	}
	check("empty", nil, ErrCorrupt)
	check("truncated header", blob[:10], ErrCorrupt)
	check("truncated payload", blob[:len(blob)-trailerSize-3], ErrCorrupt)
	check("truncated trailer", blob[:len(blob)-1], ErrCorrupt)
	check("trailing garbage", append(append([]byte{}, blob...), 0x00), ErrCorrupt)

	magic := append([]byte{}, blob...)
	magic[0] = 'X'
	check("bad magic", magic, ErrCorrupt)

	future := append([]byte{}, blob...)
	future[4], future[5] = 0xee, 0xff
	check("future version", future, ErrVersion)

	flipped := append([]byte{}, blob...)
	flipped[headerSize+10] ^= 0x40 // a payload byte
	check("bit flip", flipped, ErrCorrupt)

	badsum := append([]byte{}, blob...)
	badsum[len(badsum)-1] ^= 0x01
	check("bad checksum", badsum, ErrCorrupt)

	badlen := append([]byte{}, blob...)
	badlen[6] = 0xff // key length no longer matches the frame
	check("bad key length", badlen, ErrCorrupt)

	huge := append([]byte{}, blob...)
	huge[10], huge[11], huge[12], huge[13] = 0xff, 0xff, 0xff, 0xff
	huge[14], huge[15], huge[16], huge[17] = 0xff, 0xff, 0xff, 0x7f
	check("implausible payload length", huge, ErrCorrupt)
}

// FuzzStoreDecode asserts the frame decoder never panics or
// misattributes hostile bytes, and that accepted frames re-encode to
// the identical blob — corruption can only ever surface as a counted,
// quarantined skip.
func FuzzStoreDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(Encode("k", []byte("v")))
	f.Add(Encode("", nil))
	f.Add(Encode("check\x00fp\x00C\x00false", []byte(`{"ok":true,"reports":[]}`)))
	trunc := Encode("trunc", []byte("payload"))
	f.Add(trunc[:len(trunc)-5])
	future := Encode("future", []byte("payload"))
	future[4] = 0x63
	f.Add(future)
	f.Fuzz(func(t *testing.T, b []byte) {
		key, payload, err := Decode(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("Decode error outside the corrupt/version taxonomy: %v", err)
			}
			return
		}
		if !bytes.Equal(Encode(key, payload), b) {
			t.Fatalf("accepted frame does not re-encode identically (key %q, %d payload bytes)", key, len(payload))
		}
	})
}
