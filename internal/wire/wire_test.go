package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"
)

func sample() []byte {
	return NewEncoder(KindCheckpoint).
		Section(1, []byte("alpha")).
		Section(2, nil).
		Section(7, []byte{0xde, 0xad}).
		Bytes()
}

func TestRoundtrip(t *testing.T) {
	data := sample()
	kind, secs, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindCheckpoint {
		t.Fatalf("kind %d, want %d", kind, KindCheckpoint)
	}
	want := []Section{{1, []byte("alpha")}, {2, []byte{}}, {7, []byte{0xde, 0xad}}}
	if len(secs) != len(want) {
		t.Fatalf("%d sections, want %d", len(secs), len(want))
	}
	for i, s := range secs {
		if s.Type != want[i].Type || !bytes.Equal(s.Payload, want[i].Payload) {
			t.Fatalf("section %d = %+v, want %+v", i, s, want[i])
		}
	}
}

func TestDecodeRejections(t *testing.T) {
	good := sample()
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short", good[:8], ErrTruncated},
		{"bad magic", append([]byte("GOBX"), good[4:]...), ErrMagic},
		{"future version", func() []byte {
			d := append([]byte(nil), good...)
			binary.LittleEndian.PutUint16(d[4:6], Version+1)
			return d
		}(), ErrVersion},
		{"version zero", func() []byte {
			d := append([]byte(nil), good...)
			binary.LittleEndian.PutUint16(d[4:6], 0)
			return d
		}(), ErrVersion},
		{"flipped byte", func() []byte {
			d := append([]byte(nil), good...)
			d[12] ^= 0x40
			return d
		}(), ErrChecksum},
		{"truncated section", good[:len(good)-6], ErrChecksum},
	}
	for _, tc := range cases {
		if _, _, err := Decode(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestDecodeOversizedSectionNoAlloc: a forged section length larger than
// the remaining bytes errors before any allocation proportional to it.
func TestDecodeOversizedSection(t *testing.T) {
	d := append([]byte(nil), sample()...)
	// First section header starts at offset 10; its length field at 12.
	binary.LittleEndian.PutUint32(d[12:16], math.MaxUint32)
	// Re-seal the CRC so the length check, not the checksum, fires.
	reseal(d)
	if _, _, err := Decode(d); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err %v, want %v", err, ErrTruncated)
	}
}

// reseal recomputes a tampered envelope's CRC in place.
func reseal(d []byte) {
	binary.LittleEndian.PutUint32(d[len(d)-4:], crc32.ChecksumIEEE(d[:len(d)-4]))
}

func TestTrailingBytesRejected(t *testing.T) {
	good := sample()
	// Claim one section fewer than encoded: the second section's bytes
	// become slack before the CRC.
	d := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(d[8:10], 2)
	reseal(d)
	if _, _, err := Decode(d); !errors.Is(err, ErrTrailing) {
		t.Fatalf("err %v, want %v", err, ErrTrailing)
	}
}

func TestDecodeKind(t *testing.T) {
	if _, err := DecodeKind(sample(), KindUpdate); err == nil ||
		!strings.Contains(err.Error(), "kind") {
		t.Fatalf("kind mismatch not rejected: %v", err)
	}
	if _, err := DecodeKind(sample(), KindCheckpoint); err != nil {
		t.Fatal(err)
	}
}

// TestOtherFamiliesRefused: a payload of one of the repository's other
// encodings — a compact report tag (0x01–0x04) or a gob stream, which opens
// with a small length byte — fails the magic check; it is never misread as
// an envelope.
func TestOtherFamiliesRefused(t *testing.T) {
	for _, first := range []byte{0x01, 0x04, 0x2a, 0x7f} {
		p := sample()
		p[0] = first
		if _, _, err := Decode(p); !errors.Is(err, ErrMagic) {
			t.Errorf("first byte 0x%02x: %v, want ErrMagic", first, err)
		}
	}
}

// TestBufferReadAllBudget: ReadAll takes a payload of exactly the budget
// and refuses one byte more.
func TestBufferReadAllBudget(t *testing.T) {
	data := sample()
	b := GetBuffer()
	defer b.Release()
	if err := b.ReadAll(bytes.NewReader(data), int64(len(data))); err != nil || !bytes.Equal(b.B, data) {
		t.Fatalf("ReadAll at exact budget: %v", err)
	}
	b.B = b.B[:0]
	if err := b.ReadAll(bytes.NewReader(data), int64(len(data))-1); err == nil {
		t.Fatal("over-budget payload accepted")
	}
}

func TestScalarHelpers(t *testing.T) {
	f := []float64{0, -1.5, math.Inf(1), math.Copysign(0, -1), math.NaN()}
	fp := AppendFloat64s(nil, f)
	got, err := Float64s(fp, len(f))
	if err != nil {
		t.Fatal(err)
	}
	for i := range f {
		if math.Float64bits(got[i]) != math.Float64bits(f[i]) {
			t.Fatalf("float %d not bit-exact: %x vs %x", i, got[i], f[i])
		}
	}
	if _, err := Float64s(fp[:len(fp)-1], len(f)); err == nil {
		t.Fatal("short float payload accepted")
	}

	ints := []int{0, -5, 1 << 20, math.MaxInt32, math.MinInt32}
	ip := AppendInts(nil, ints)
	gotI, rest, err := ReadInts(append(ip, 0x99))
	if err != nil || len(rest) != 1 {
		t.Fatalf("ReadInts: %v (rest %d)", err, len(rest))
	}
	for i := range ints {
		if gotI[i] != ints[i] {
			t.Fatalf("int %d = %d, want %d", i, gotI[i], ints[i])
		}
	}
	if _, _, err := ReadInts([]byte{0xff, 0xff, 0xff, 0xff, 0x01}); err == nil {
		t.Fatal("oversized int count accepted")
	}

	bools := []bool{true, false, true, true, false, false, true, false, true}
	bp := AppendBoolsFunc(nil, len(bools), func(i int) bool { return bools[i] })
	gotB, rest, err := ReadBools(bp)
	if err != nil || len(rest) != 0 {
		t.Fatalf("ReadBools: %v", err)
	}
	for i := range bools {
		if gotB[i] != bools[i] {
			t.Fatalf("bool %d mismatch", i)
		}
	}
	bp[len(bp)-1] |= 0x80 // pad bit past element 8
	if _, _, err := ReadBools(bp); err == nil {
		t.Fatal("nonzero pad bits accepted")
	}
}

// TestWriterMatchesLayout pins the append-style writer against the layout
// in the package comment, assembled by hand, and against Encoder — behind
// a prefix, so offsets are relative to the envelope and not the slice.
func TestWriterMatchesLayout(t *testing.T) {
	var want []byte
	want = append(want, 0xFC, 'F', 'C', 'W')
	want = append(want, 1, 0, 2, 0, 3, 0) // version 1, KindCheckpoint, 3 sections
	want = append(want, 1, 0, 5, 0, 0, 0)
	want = append(want, "alpha"...)
	want = append(want, 2, 0, 0, 0, 0, 0)
	want = append(want, 7, 0, 2, 0, 0, 0, 0xde, 0xad)
	want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(want))
	if !bytes.Equal(sample(), want) {
		t.Fatalf("Encoder emits % x, layout says % x", sample(), want)
	}

	prefix := []byte("prefix")
	w := NewWriter(append([]byte(nil), prefix...), KindCheckpoint)
	w.Section(1)
	w.B = append(w.B, "alpha"...)
	w.Section(2)
	w.Section(7)
	w.B = append(w.B, 0xde)
	w.B = append(w.B, 0xad)
	got := w.Finish()
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("Writer emits % x after the prefix, want % x", got[len(prefix):], want)
	}
	if empty := NewWriter(nil, KindUpdate); !bytes.Equal(empty.Finish(), NewEncoder(KindUpdate).Bytes()) {
		t.Fatal("sectionless Writer and Encoder envelopes differ")
	}
}

// TestFloat64sBulk walks the lengths around the unrolled loop's stride and
// checks the bulk codecs against the one-value-at-a-time definition.
func TestFloat64sBulk(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(-1), math.Copysign(0, -1), math.SmallestNonzeroFloat64}
	for n := 0; n <= 13; n++ {
		v := make([]float64, n)
		var want []byte
		for i := range v {
			v[i] = float64(i)*1.25 - 3
			if i%3 == 0 {
				v[i] = specials[i%len(specials)]
			}
			want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v[i]))
		}
		got := AppendFloat64s([]byte{0xAA}, v)
		if got[0] != 0xAA || !bytes.Equal(got[1:], want) {
			t.Fatalf("n=%d: AppendFloat64s = % x, want % x", n, got[1:], want)
		}
		back := make([]float64, n)
		if err := Float64sInto(back, want); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range v {
			if math.Float64bits(back[i]) != math.Float64bits(v[i]) {
				t.Fatalf("n=%d: value %d not bit-exact", n, i)
			}
		}
		if err := Float64sInto(make([]float64, n+1), want); err == nil {
			t.Fatalf("n=%d: short payload accepted", n)
		}
	}
}

// slowReader yields one byte per Read and its EOF on a separate call, the
// least helpful reader Buffer.ReadAll can meet.
type slowReader struct{ p []byte }

func (r *slowReader) Read(p []byte) (int, error) {
	if len(r.p) == 0 {
		return 0, io.EOF
	}
	p[0] = r.p[0]
	r.p = r.p[1:]
	return 1, nil
}

func TestBufferReadAll(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789abcdef"), 1000) // several growth steps
	b := GetBuffer()
	defer b.Release()
	if err := b.ReadAll(bytes.NewReader(data), int64(len(data))); err != nil || !bytes.Equal(b.B, data) {
		t.Fatalf("ReadAll at exact budget: %v (%d bytes)", err, len(b.B))
	}
	// A second read into the grown buffer appends and allocates nothing.
	b.B = b.B[:0]
	if err := b.ReadAll(&slowReader{p: data[:100]}, 100); err != nil || !bytes.Equal(b.B, data[:100]) {
		t.Fatalf("ReadAll from a slow reader: %v", err)
	}
	// Over budget: rejected having buffered at most limit+1 bytes, however
	// much capacity the pool handed out and however long the stream runs.
	b.B = b.B[:0]
	endless := io.MultiReader(bytes.NewReader(data), bytes.NewReader(data))
	if err := b.ReadAll(endless, 4999); err == nil || len(b.B) != 5000 {
		t.Fatalf("over-budget stream: err %v with %d bytes buffered, want an error at 5000", err, len(b.B))
	}
	if err := b.ReadAll(iotest.ErrReader(io.ErrUnexpectedEOF), 1<<20); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("reader error not passed through: %v", err)
	}
}
