package transport

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// The gob request structs binaries before the envelope sent, under their
// original names so the streams carry the original type descriptors. No
// handler reads them any more; the tests keep them as hostile input that
// must draw 400.
type (
	UpdateRequest struct {
		Global []float64
		Round  int
	}
	RankRequest struct {
		Global []float64
		Layer  int
	}
	VoteRequest struct {
		Global []float64
		Layer  int
		Rate   float64
	}
)

// gobBody gob-encodes one legacy request.
func gobBody(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
