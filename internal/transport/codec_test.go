package transport

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestRanksDeltaRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][]int{
		nil,
		{},
		{1},
		{1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1},
		{math.MaxInt32, math.MinInt32, 0},
	}
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(600)
		perm := rng.Perm(n)
		for i := range perm {
			perm[i]++ // rank vectors are 1-based
		}
		cases = append(cases, perm)
	}
	for _, ranks := range cases {
		p := AppendRanksDelta(nil, ranks)
		got, err := DecodeRanksDelta(p)
		if err != nil {
			t.Fatalf("decode(%v): %v", ranks, err)
		}
		if len(got) != len(ranks) {
			t.Fatalf("roundtrip length %d, want %d", len(got), len(ranks))
		}
		for i := range got {
			if got[i] != ranks[i] {
				t.Fatalf("roundtrip[%d] = %d, want %d", i, got[i], ranks[i])
			}
		}
		// Canonical: re-encoding the decode reproduces the bytes.
		if !bytes.Equal(AppendRanksDelta(nil, got), p) {
			t.Fatalf("encoding not canonical for %v", ranks)
		}
	}
}

func TestRanksDeltaCompactness(t *testing.T) {
	// A 512-unit rank permutation must encode well below its gob size
	// (~1.4 KB) — deltas of a permutation of 1..512 fit 1-2 varint bytes.
	perm := rand.New(rand.NewSource(2)).Perm(512)
	for i := range perm {
		perm[i]++
	}
	p := AppendRanksDelta(nil, perm)
	if len(p) > 1100 {
		t.Fatalf("512-rank payload is %d bytes, want ≤ 1100", len(p))
	}
}

func TestVoteBitmapRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := [][]bool{nil, {}, {true}, {false}, {true, false, true}}
	for _, n := range []int{7, 8, 9, 64, 65, 512} {
		v := make([]bool, n)
		for i := range v {
			v[i] = rng.Intn(2) == 1
		}
		cases = append(cases, v)
	}
	for _, votes := range cases {
		p := AppendVoteBitmap(nil, votes)
		if want := 1 + uvarintLen(len(votes)) + (len(votes)+7)/8; len(p) != want {
			t.Fatalf("bitmap for %d votes is %d bytes, want %d", len(votes), len(p), want)
		}
		got, err := DecodeVoteBitmap(p)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(got) != len(votes) {
			t.Fatalf("roundtrip length %d, want %d", len(got), len(votes))
		}
		for i := range got {
			if got[i] != votes[i] {
				t.Fatalf("roundtrip[%d] = %v, want %v", i, got[i], votes[i])
			}
		}
		if !bytes.Equal(AppendVoteBitmap(nil, got), p) {
			t.Fatal("encoding not canonical")
		}
	}
}

func uvarintLen(n int) int {
	l := 1
	for n >= 0x80 {
		n >>= 7
		l++
	}
	return l
}

func TestCodecsRejectMalformedInput(t *testing.T) {
	valid := map[string][]byte{
		"ranks": AppendRanksDelta(nil, []int{3, 1, 2}),
		"votes": AppendVoteBitmap(nil, []bool{true, false, true}),
	}
	decode := map[string]func([]byte) error{
		"ranks": func(p []byte) error { _, err := DecodeRanksDelta(p); return err },
		"votes": func(p []byte) error { _, err := DecodeVoteBitmap(p); return err },
	}
	for name, p := range valid {
		dec := decode[name]
		if err := dec(nil); err == nil {
			t.Fatalf("%s: empty input accepted", name)
		}
		if err := dec([]byte{0x7f}); err == nil {
			t.Fatalf("%s: wrong tag accepted", name)
		}
		for cut := 1; cut < len(p); cut++ {
			if err := dec(p[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d accepted", name, cut)
			}
		}
		if err := dec(append(append([]byte{}, p...), 0)); err == nil {
			t.Fatalf("%s: trailing garbage accepted", name)
		}
		// A huge claimed length must be rejected before any allocation.
		huge := append([]byte{p[0]}, 0xff, 0xff, 0xff, 0xff, 0x7f)
		if err := dec(huge); err == nil {
			t.Fatalf("%s: huge length accepted", name)
		}
		// A non-minimal length varint (0x80 0x00 encodes 0 in two
		// bytes) would make the encoding non-canonical.
		if err := dec([]byte{p[0], 0x80, 0x00}); err == nil {
			t.Fatalf("%s: non-minimal length varint accepted", name)
		}
	}
	// Same for the delta stream inside a rank vector: zigzag(0) padded
	// to two bytes must be rejected.
	if _, err := DecodeRanksDelta([]byte{TagRanksDelta, 0x01, 0x80, 0x00}); err == nil {
		t.Fatal("ranks: non-minimal delta varint accepted")
	}
	// Nonzero padding bits in a vote bitmap are non-canonical.
	p := AppendVoteBitmap(nil, []bool{true, false, true})
	p[len(p)-1] |= 0x80
	if _, err := DecodeVoteBitmap(p); err == nil {
		t.Fatal("votes: nonzero pad bits accepted")
	}
}
