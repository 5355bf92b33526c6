package transport

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Compact report wire codecs (DESIGN.md §9). Defense report responses are
// tiny and extremely numerous at fleet scale, so they are purpose-built
// losslessly-invertible encodings behind a self-describing 1-byte tag:
//
//	0x01 RanksDelta  uvarint n, then n zigzag-varint deltas between
//	                 consecutive rank values (previous value starts at 0)
//	0x02 VoteBitmap  uvarint n, then ceil(n/8) bytes, vote i at byte i/8
//	                 bit i%8 (LSB first); trailing pad bits must be 0
//
// Tags 0x03 and 0x04 are retired (an int8 activation payload and a
// float64 one): never reuse them.
//
// Every decoder rejects truncated input, trailing garbage, non-minimal
// varints and length headers larger than the remaining payload could
// hold, so decoding allocates at most O(len(input)) and
// encode(decode(p)) == p for every accepted p — the codecs are
// canonical. The tag names a payload type, not a wire format: a rank
// response is a RanksDelta and a vote response a VoteBitmap, whatever the
// participant's report precision. A body opening with any other byte is
// refused.
//
// RanksDelta carries arbitrary []int values as long as each fits in int32
// (rank vectors are permutations of 1..P_L, far inside that); the bound is
// enforced on decode so a wire peer cannot smuggle values whose deltas
// would overflow on re-encode.
const (
	// TagRanksDelta marks a varint delta-encoded rank vector.
	TagRanksDelta byte = 0x01
	// TagVoteBitmap marks a bit-packed vote bitmap.
	TagVoteBitmap byte = 0x02
)

// maxReportLen bounds the element count a report codec accepts — far above
// any real layer width, far below anything that could bloat a decode.
const maxReportLen = 1 << 24

// AppendRanksDelta appends the tagged RanksDelta encoding of ranks to dst
// and returns the extended slice. Values must fit in int32.
func AppendRanksDelta(dst []byte, ranks []int) []byte {
	dst = append(dst, TagRanksDelta)
	dst = binary.AppendUvarint(dst, uint64(len(ranks)))
	prev := 0
	for _, r := range ranks {
		if r < math.MinInt32 || r > math.MaxInt32 {
			panic(fmt.Sprintf("transport: rank value %d outside int32", r))
		}
		dst = binary.AppendVarint(dst, int64(r-prev))
		prev = r
	}
	return dst
}

// DecodeRanksDelta decodes a tagged RanksDelta payload.
func DecodeRanksDelta(p []byte) ([]int, error) {
	body, n, err := reportHeader(p, TagRanksDelta, 1)
	if err != nil {
		return nil, err
	}
	ranks := make([]int, n)
	prev := int64(0)
	for i := range ranks {
		d, k := binary.Varint(body)
		if k <= 0 {
			return nil, fmt.Errorf("transport: RanksDelta truncated at element %d", i)
		}
		if k > 1 && body[k-1] == 0 {
			return nil, fmt.Errorf("transport: RanksDelta delta %d not minimally encoded", i)
		}
		body = body[k:]
		prev += d
		if prev < math.MinInt32 || prev > math.MaxInt32 {
			return nil, fmt.Errorf("transport: RanksDelta value %d outside int32", prev)
		}
		ranks[i] = int(prev)
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("transport: RanksDelta has %d trailing bytes", len(body))
	}
	return ranks, nil
}

// AppendVoteBitmap appends the tagged VoteBitmap encoding of votes to dst
// and returns the extended slice.
func AppendVoteBitmap(dst []byte, votes []bool) []byte {
	dst = append(dst, TagVoteBitmap)
	dst = binary.AppendUvarint(dst, uint64(len(votes)))
	var cur byte
	for i, v := range votes {
		if v {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			dst = append(dst, cur)
			cur = 0
		}
	}
	if len(votes)%8 != 0 {
		dst = append(dst, cur)
	}
	return dst
}

// DecodeVoteBitmap decodes a tagged VoteBitmap payload.
func DecodeVoteBitmap(p []byte) ([]bool, error) {
	body, n, err := reportHeader(p, TagVoteBitmap, 0)
	if err != nil {
		return nil, err
	}
	nb := (n + 7) / 8
	if len(body) != nb {
		return nil, fmt.Errorf("transport: VoteBitmap body %d bytes, want %d", len(body), nb)
	}
	votes := make([]bool, n)
	for i := range votes {
		votes[i] = body[i/8]&(1<<(i%8)) != 0
	}
	if n%8 != 0 && body[nb-1]>>(n%8) != 0 {
		return nil, fmt.Errorf("transport: VoteBitmap pad bits not zero")
	}
	return votes, nil
}

// reportHeader checks the tag, reads the element count and bounds it by
// what the remaining bytes could possibly hold (minBytes per element;
// 0 means bit-packed, ≥1 element per remaining byte ×8).
func reportHeader(p []byte, tag byte, minBytes int) (body []byte, n int, err error) {
	if len(p) == 0 || p[0] != tag {
		return nil, 0, fmt.Errorf("transport: payload is not codec 0x%02x", tag)
	}
	u, k := binary.Uvarint(p[1:])
	if k <= 0 {
		return nil, 0, fmt.Errorf("transport: codec 0x%02x header truncated", tag)
	}
	// A multi-byte varint ending in 0x00 has an empty top group — the
	// same value has a shorter encoding, which would break canonicality.
	if k > 1 && p[k] == 0 {
		return nil, 0, fmt.Errorf("transport: codec 0x%02x length not minimally encoded", tag)
	}
	body = p[1+k:]
	limit := uint64(len(body)) * 8
	if minBytes > 0 {
		limit = uint64(len(body)) / uint64(minBytes)
	}
	if u > limit || u > maxReportLen {
		return nil, 0, fmt.Errorf("transport: codec 0x%02x claims %d elements in %d bytes", tag, u, len(body))
	}
	return body, int(u), nil
}
