// Package wire defines the repository's versioned, self-describing
// serialization envelope (DESIGN.md §7): a fixed magic, a format version,
// a payload kind and a sequence of typed sections over raw little-endian
// scalar payloads, closed by a CRC32 of everything preceding it.
//
//	offset 0  magic   4 bytes  0xFC 'F' 'C' 'W'
//	       4  version uint16 LE (currently 1; larger values are rejected)
//	       6  kind    uint16 LE (payload kind, see Kind*)
//	       8  nsect   uint16 LE (number of sections)
//	      10  sections, each: type uint16 LE | length uint32 LE | payload
//	     end  crc32   uint32 LE, IEEE, over every preceding byte
//
// The envelope exists so update deltas, protocol requests and round-state
// checkpoints survive binary upgrades: a reader skips section types it does not know
// (forward compatibility within a version) and refuses versions from the
// future (a version bump means the section semantics changed). The CRC
// turns a torn file — a crash mid-write on a filesystem without atomic
// rename — into a clean decode error instead of silently corrupt state.
//
// The magic's first byte, 0xFC, is neither a compact report tag (transport
// codec.go, 0x01–0x04) nor how a gob stream opens (with the byte length of
// a type descriptor, a small positive value), so a payload of either family
// fails the magic check with ErrMagic rather than being misread.
//
// Decoding never panics and never allocates beyond the input: Decode
// slices sections out of the caller's buffer, and Buffer.ReadAll caps an
// io.Reader at an explicit budget before any parsing happens, so a hostile
// length field cannot balloon memory.
//
// The package also holds the two free lists the wire path runs on, each with
// its ownership rule: Buffer (bytes, which never leave the call that took
// them) and GetFloat64s/PutFloat64s (parameter-sized vectors, which change
// hands and are recycled by their last owner; DESIGN.md §6).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// Version is the current envelope version. Decoders accept payloads at or
// below it and reject anything newer.
const Version = 1

// Magic opens every versioned payload.
var Magic = [4]byte{0xFC, 'F', 'C', 'W'}

// headerLen is magic + version + kind + nsect; minLen adds the CRC.
const (
	headerLen = 10
	crcLen    = 4
	minLen    = headerLen + crcLen
	secHdrLen = 6 // type uint16 + length uint32
)

// Payload kinds. New kinds append; numbers are wire-stable.
const (
	// 1 is retired: it was a self-contained model snapshot (builder,
	// geometry and parameter/mask state) that older binaries may have
	// written to disk. Never reuse it.

	// KindCheckpoint is a federated round-state checkpoint (internal/fl).
	KindCheckpoint uint16 = 2
	// KindUpdate is one client's update delta (internal/transport).
	KindUpdate uint16 = 3
	// 4 is retired: it was a bare parameter/mask payload applied onto an
	// existing architecture, which older binaries may still write. Never
	// reuse it.

	// KindUpdateRequest, KindRankRequest and KindVoteRequest are the three
	// protocol requests a server sends a client (internal/transport
	// request_codec.go).
	KindUpdateRequest uint16 = 5
	KindRankRequest   uint16 = 6
	KindVoteRequest   uint16 = 7
	// 8 and 9 are retired: they were a client-reported-accuracy request and
	// its answer, which older binaries may still send. Never reuse them.
)

// Section is one typed payload slice; Payload aliases the decoded buffer.
type Section struct {
	Type    uint16
	Payload []byte
}

// Sentinel error families, matchable with errors.Is.
var (
	// ErrMagic marks a payload that is not a versioned envelope at all.
	ErrMagic = errors.New("wire: bad magic")
	// ErrVersion marks an envelope from a future format version.
	ErrVersion = errors.New("wire: unsupported version")
	// ErrTruncated marks an envelope shorter than its own headers claim.
	ErrTruncated = errors.New("wire: truncated payload")
	// ErrChecksum marks a CRC mismatch — a torn or corrupted payload.
	ErrChecksum = errors.New("wire: checksum mismatch")
	// ErrTrailing marks bytes between the last section and the CRC; the
	// encoding is canonical, so slack is corruption.
	ErrTrailing = errors.New("wire: trailing bytes")
)

// Writer appends one envelope to a byte slice in place: NewWriter writes
// the header, each Section call opens a section whose payload the caller
// appends straight to B, and Finish closes the envelope with the CRC of
// the written range. Lengths and the section count are patched once they
// are known, so a payload is written exactly once, into its final place.
type Writer struct {
	// B is the slice being extended. Between Section and the next Section
	// or Finish, whatever the caller appends to it is the open section's
	// payload.
	B     []byte
	start int // offset of the magic within B
	sec   int // offset of the open section's header, -1 when none is open
	nsect int
}

// NewWriter opens an envelope of the given kind at the end of dst.
func NewWriter(dst []byte, kind uint16) Writer {
	start := len(dst)
	dst = append(dst, Magic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, Version)
	dst = binary.LittleEndian.AppendUint16(dst, kind)
	dst = binary.LittleEndian.AppendUint16(dst, 0) // section count, patched by Finish
	return Writer{B: dst, start: start, sec: -1}
}

// Section closes the open section, if any, and opens one of type typ.
func (w *Writer) Section(typ uint16) {
	w.closeSection()
	w.sec = len(w.B)
	w.B = binary.LittleEndian.AppendUint16(w.B, typ)
	w.B = binary.LittleEndian.AppendUint32(w.B, 0) // length, patched by closeSection
	w.nsect++
}

func (w *Writer) closeSection() {
	if w.sec < 0 {
		return
	}
	n := len(w.B) - w.sec - secHdrLen
	if n > math.MaxUint32 {
		panic(fmt.Sprintf("wire: section payload %d bytes exceeds uint32", n))
	}
	binary.LittleEndian.PutUint32(w.B[w.sec+2:], uint32(n))
	w.sec = -1
}

// Finish closes the envelope and returns the extended slice.
func (w *Writer) Finish() []byte {
	w.closeSection()
	if w.nsect > math.MaxUint16 {
		panic(fmt.Sprintf("wire: %d sections exceed uint16", w.nsect))
	}
	binary.LittleEndian.PutUint16(w.B[w.start+8:], uint16(w.nsect))
	return binary.LittleEndian.AppendUint32(w.B, crc32.ChecksumIEEE(w.B[w.start:]))
}

// Encoder accumulates sections for one payload whose section payloads
// already exist as slices; Writer is the form that builds them in place.
type Encoder struct {
	kind uint16
	secs []Section
}

// NewEncoder opens an envelope of the given kind.
func NewEncoder(kind uint16) *Encoder {
	return &Encoder{kind: kind}
}

// Section appends one typed section. The payload is retained until Bytes.
func (e *Encoder) Section(typ uint16, payload []byte) *Encoder {
	e.secs = append(e.secs, Section{Type: typ, Payload: payload})
	return e
}

// Bytes emits the envelope: header, sections in append order, CRC.
func (e *Encoder) Bytes() []byte {
	n := minLen
	for _, s := range e.secs {
		n += secHdrLen + len(s.Payload)
	}
	w := NewWriter(make([]byte, 0, n), e.kind)
	for _, s := range e.secs {
		w.Section(s.Type)
		w.B = append(w.B, s.Payload...)
	}
	return w.Finish()
}

// Decode parses a versioned envelope, verifying magic, version, section
// bounds and the CRC. Sections alias data — the caller keeps data alive
// for as long as it uses them. Decode errors, never panics, on any
// malformed input, and performs no allocation proportional to claimed
// (rather than actual) lengths.
func Decode(data []byte) (kind uint16, secs []Section, err error) {
	if len(data) < minLen {
		return 0, nil, fmt.Errorf("%w: %d bytes, need at least %d", ErrTruncated, len(data), minLen)
	}
	if data[0] != Magic[0] || data[1] != Magic[1] || data[2] != Magic[2] || data[3] != Magic[3] {
		return 0, nil, fmt.Errorf("%w: % x", ErrMagic, data[:4])
	}
	v := binary.LittleEndian.Uint16(data[4:6])
	if v == 0 || v > Version {
		return 0, nil, fmt.Errorf("%w: %d (this binary reads up to %d)", ErrVersion, v, Version)
	}
	body, tail := data[:len(data)-crcLen], data[len(data)-crcLen:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return 0, nil, fmt.Errorf("%w: computed %08x, stored %08x", ErrChecksum, got, want)
	}
	kind = binary.LittleEndian.Uint16(data[6:8])
	nsect := int(binary.LittleEndian.Uint16(data[8:10]))
	rest := body[headerLen:]
	if nsect > 0 {
		secs = make([]Section, 0, min(nsect, len(rest)/secHdrLen+1))
	}
	for i := 0; i < nsect; i++ {
		if len(rest) < secHdrLen {
			return 0, nil, fmt.Errorf("%w: section %d header", ErrTruncated, i)
		}
		typ := binary.LittleEndian.Uint16(rest[0:2])
		ln := binary.LittleEndian.Uint32(rest[2:6])
		rest = rest[secHdrLen:]
		if uint64(ln) > uint64(len(rest)) {
			return 0, nil, fmt.Errorf("%w: section %d claims %d bytes, %d remain", ErrTruncated, i, ln, len(rest))
		}
		secs = append(secs, Section{Type: typ, Payload: rest[:ln:ln]})
		rest = rest[ln:]
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("%w: %d bytes after last section", ErrTrailing, len(rest))
	}
	return kind, secs, nil
}

// DecodeKind is Decode constrained to one expected payload kind.
func DecodeKind(data []byte, want uint16) ([]Section, error) {
	kind, secs, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if kind != want {
		return nil, fmt.Errorf("wire: payload kind %d, want %d", kind, want)
	}
	return secs, nil
}

// Scalar and slice payload helpers. These are the section *contents*; the
// envelope above carries them opaquely.

// AppendUint appends a uvarint.
func AppendUint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// ReadUint consumes one uvarint from p.
func ReadUint(p []byte) (v uint64, rest []byte, err error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: uvarint", ErrTruncated)
	}
	return v, p[n:], nil
}

// AppendFloat64s appends raw little-endian IEEE float64 values, growing
// dst at most once.
func AppendFloat64s(dst []byte, v []float64) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 8*len(v))[:n+8*len(v)]
	out := dst[n:]
	// Four values per iteration behind one bounds check: this runs at
	// memmove speed, twice as fast as the one-value loop it ends with.
	for len(v) >= 4 && len(out) >= 32 {
		binary.LittleEndian.PutUint64(out[0:8], math.Float64bits(v[0]))
		binary.LittleEndian.PutUint64(out[8:16], math.Float64bits(v[1]))
		binary.LittleEndian.PutUint64(out[16:24], math.Float64bits(v[2]))
		binary.LittleEndian.PutUint64(out[24:32], math.Float64bits(v[3]))
		v, out = v[4:], out[32:]
	}
	for _, x := range v {
		binary.LittleEndian.PutUint64(out, math.Float64bits(x))
		out = out[8:]
	}
	return dst
}

// Float64sInto decodes a raw little-endian float64 payload of exactly
// len(dst) values into dst (bit-exact; NaN payloads and signed zeros
// survive).
func Float64sInto(dst []float64, p []byte) error {
	if len(p) != 8*len(dst) {
		return fmt.Errorf("wire: float64 payload %d bytes, want %d", len(p), 8*len(dst))
	}
	for len(dst) >= 4 && len(p) >= 32 { // unrolled as in AppendFloat64s
		dst[0] = math.Float64frombits(binary.LittleEndian.Uint64(p[0:8]))
		dst[1] = math.Float64frombits(binary.LittleEndian.Uint64(p[8:16]))
		dst[2] = math.Float64frombits(binary.LittleEndian.Uint64(p[16:24]))
		dst[3] = math.Float64frombits(binary.LittleEndian.Uint64(p[24:32]))
		dst, p = dst[4:], p[32:]
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	return nil
}

// Float64s is Float64sInto a freshly allocated slice of n values.
func Float64s(p []byte, n int) ([]float64, error) {
	if n < 0 || len(p) != 8*n {
		return nil, fmt.Errorf("wire: float64 payload %d bytes, want %d", len(p), 8*n)
	}
	out := make([]float64, n)
	return out, Float64sInto(out, p)
}

// AppendInts appends a uvarint count followed by zigzag-varint values.
func AppendInts(dst []byte, v []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, x := range v {
		dst = binary.AppendVarint(dst, int64(x))
	}
	return dst
}

// ReadInts consumes a varint-encoded int slice from p, bounding the
// declared count by what the remaining bytes could possibly hold (one
// byte per value minimum) so a forged header cannot over-allocate.
func ReadInts(p []byte) (v []int, rest []byte, err error) {
	n, rest, err := ReadUint(p)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w: %d ints claimed in %d bytes", ErrTruncated, n, len(rest))
	}
	v = make([]int, n)
	for i := range v {
		x, k := binary.Varint(rest)
		if k <= 0 {
			return nil, nil, fmt.Errorf("%w: int %d of %d", ErrTruncated, i, n)
		}
		if x < math.MinInt32 || x > math.MaxInt32 {
			return nil, nil, fmt.Errorf("wire: int value %d outside int32", x)
		}
		v[i] = int(x)
		rest = rest[k:]
	}
	return v, rest, nil
}

// AppendBoolsFunc appends a uvarint count followed by an LSB-first bitmap
// of the n values at(0) … at(n-1); ReadBools reads it back.
func AppendBoolsFunc(dst []byte, n int, at func(i int) bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(n))
	var cur byte
	for i := 0; i < n; i++ {
		if at(i) {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			dst = append(dst, cur)
			cur = 0
		}
	}
	if n%8 != 0 {
		dst = append(dst, cur)
	}
	return dst
}

// ReadBools consumes a bitmap-encoded bool slice from p, rejecting
// nonzero pad bits so the encoding stays canonical.
func ReadBools(p []byte) (v []bool, rest []byte, err error) {
	n, rest, err := ReadUint(p)
	if err != nil {
		return nil, nil, err
	}
	nb := (n + 7) / 8
	if nb > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w: %d bools claimed in %d bytes", ErrTruncated, n, len(rest))
	}
	v = make([]bool, n)
	for i := range v {
		v[i] = rest[i/8]&(1<<(i%8)) != 0
	}
	if n%8 != 0 && rest[nb-1]>>(n%8) != 0 {
		return nil, nil, fmt.Errorf("wire: bool bitmap pad bits not zero")
	}
	return v, rest[nb:], nil
}
