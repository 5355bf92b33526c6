package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// Fuzz targets for the compact report codecs (codec.go). Two invariants:
//
//  1. Decoding arbitrary bytes never panics and never allocates more than
//     O(len(input)) — it either fails or yields a well-formed value.
//  2. The codecs are canonical: any input that decodes successfully
//     re-encodes to exactly the same bytes, and any value produced by an
//     encoder decodes back to an equal value (round-trip identity).
//
// Seed corpora live in testdata/fuzz/.

func FuzzDecodeRanksDelta(f *testing.F) {
	f.Add(AppendRanksDelta(nil, []int{3, 1, 2, 4}))
	f.Add(AppendRanksDelta(nil, nil))
	f.Add([]byte{TagRanksDelta, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, p []byte) {
		ranks, err := DecodeRanksDelta(p)
		if err != nil {
			return
		}
		if !bytes.Equal(AppendRanksDelta(nil, ranks), p) {
			t.Fatalf("accepted non-canonical RanksDelta %q", p)
		}
	})
}

func FuzzDecodeVoteBitmap(f *testing.F) {
	f.Add(AppendVoteBitmap(nil, []bool{true, false, true}))
	f.Add(AppendVoteBitmap(nil, nil))
	f.Add([]byte{TagVoteBitmap, 0x03, 0xff})
	f.Fuzz(func(t *testing.T, p []byte) {
		votes, err := DecodeVoteBitmap(p)
		if err != nil {
			return
		}
		if !bytes.Equal(AppendVoteBitmap(nil, votes), p) {
			t.Fatalf("accepted non-canonical VoteBitmap %q", p)
		}
	})
}

// FuzzRanksDeltaValueRoundtrip drives the encode side with fuzzer-chosen
// values: every int32 sequence must survive encode → decode unchanged.
func FuzzRanksDeltaValueRoundtrip(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 255, 255, 255, 255})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		ranks := make([]int, 0, len(raw)/4)
		for i := 0; i+4 <= len(raw); i += 4 {
			ranks = append(ranks, int(int32(binary.LittleEndian.Uint32(raw[i:]))))
		}
		got, err := DecodeRanksDelta(AppendRanksDelta(nil, ranks))
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if len(got) != len(ranks) {
			t.Fatalf("roundtrip length %d, want %d", len(got), len(ranks))
		}
		for i := range got {
			if got[i] != ranks[i] {
				t.Fatalf("roundtrip[%d] = %d, want %d", i, got[i], ranks[i])
			}
		}
	})
}

// FuzzUpdateDecodeAfterFailure guards the recycled vectors under the update
// decode (DESIGN.md §6). A decode that fails after it drew a vector hands it
// back, so the next decode may be given that very vector, or one another
// client's values went through: whatever it publishes must equal, element
// for element, a decode of the same bytes into fresh memory.
func FuzzUpdateDecodeAfterFailure(f *testing.F) {
	floats := func(v ...float64) []byte { return wire.AppendFloat64s(nil, v) }
	good := AppendVersionedUpdate(nil, []float64{1, -2, math.Inf(1)})
	// A count that passes the bound but disagrees with the bytes present:
	// the vector is drawn, then the decode fails.
	short := wire.NewEncoder(wire.KindUpdate).Section(secUpdateDelta, append(wire.AppendUint(nil, 2), floats(7, 8, 9)...)).Bytes()
	f.Add(short, floats(0.5, -0.25))
	f.Add(append(good[:len(good):len(good)], 0), floats(3, 4, 5, 6)) // trailing byte
	f.Add(good[:len(good)-5], floats())                              // truncated
	f.Add(good, floats(math.NaN(), math.Copysign(0, -1)))
	f.Fuzz(func(t *testing.T, hostile, raw []byte) {
		n := len(raw) / 8
		// What the free list holds next: a vector full of someone else's
		// values, at least as long as the one about to be decoded.
		stale := wire.GetFloat64s(n + 3)
		for i := range stale {
			stale[i] = 12345.678
		}
		wire.PutFloat64s(stale)
		if d, err := DecodeVersionedUpdate(hostile); err == nil {
			wire.PutFloat64s(d)
		}
		want, err := wire.Float64s(raw[:8*n], n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeVersionedUpdate(AppendVersionedUpdate(nil, want))
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("decoded %d values, want %d", len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("delta[%d] = %v (%#x), fresh decode gives %v (%#x)",
					i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	})
}
