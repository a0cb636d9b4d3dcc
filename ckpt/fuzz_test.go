package ckpt

import (
	"bytes"
	"testing"
)

// FuzzReadCheckpoint drives the frame decoder with arbitrary bytes: it must
// never panic, never allocate absurdly, and classify every accepted input
// consistently (a successful decode must re-encode and decode again).
func FuzzReadCheckpoint(f *testing.F) {
	if b, err := Encode(sampleSession()); err == nil {
		f.Add(b)
	}
	if b, err := encodeStyle(sampleSession(), StyleDeflate); err == nil {
		f.Add(b)
	}
	if b, err := Encode(&Session{Kind: "fleet"}); err == nil {
		f.Add(b)
	}
	f.Add([]byte(Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		// Anything the decoder accepts must round-trip through the encoder.
		b, err := Encode(s)
		if err != nil {
			t.Fatalf("decoded session does not re-encode: %v", err)
		}
		s2, err := Decode(b)
		if err != nil {
			t.Fatalf("re-encoded session does not decode: %v", err)
		}
		if s2.Kind != s.Kind || len(s2.Params) != len(s.Params) || len(s2.Workers) != len(s.Workers) {
			t.Fatalf("round-trip changed the session: %+v vs %+v", s, s2)
		}
		if !bytes.Equal(b, mustEncode(t, s2)) {
			t.Fatal("second encode is not bit-stable")
		}
	})
}

func mustEncode(t *testing.T, s *Session) []byte {
	t.Helper()
	b, err := Encode(s)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return b
}
