package transport

import (
	"errors"
	"fmt"
	"io"

	"github.com/fedcleanse/fedcleanse/internal/obs"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// Update responses (DESIGN.md §15): the delta wrapped in the wire envelope
// (KindUpdate), which buys a CRC over the payload, forward-compatible
// section skipping and a future-version refusal — the same durability
// contract the model and checkpoint payloads get.

// secUpdateDelta is the delta section of a KindUpdate envelope: a uvarint
// coordinate count followed by the raw little-endian float64 values.
const secUpdateDelta = 1

// updateContentType marks a versioned update payload.
const updateContentType = "application/x-fedcleanse-update"

// AppendVersionedUpdate appends a KindUpdate envelope carrying the delta,
// written in place: with capacity in dst the warm path allocates nothing.
// A nil delta (a participant that produced no update) encodes as a zero
// count and decodes back to nil.
func AppendVersionedUpdate(dst []byte, delta []float64) []byte {
	w := wire.NewWriter(dst, wire.KindUpdate)
	w.Section(secUpdateDelta)
	w.B = wire.AppendUint(w.B, uint64(len(delta)))
	w.B = wire.AppendFloat64s(w.B, delta)
	return w.Finish()
}

// DecodeVersionedUpdate parses a KindUpdate envelope back into the delta,
// bit-exactly. Unknown section types are skipped (forward compatibility);
// a missing delta section, a count that disagrees with the section length
// or trailing bytes are errors, never panics. The delta is the caller's: it
// is decoded over a vector from the free list (wire.GetFloat64s), which the
// caller may hand back once nothing can read it; a decode that fails hands
// back what it drew.
func DecodeVersionedUpdate(data []byte) ([]float64, error) {
	secs, err := wire.DecodeKind(data, wire.KindUpdate)
	if err != nil {
		return nil, err
	}
	for _, s := range secs {
		if s.Type != secUpdateDelta {
			continue
		}
		n, rest, err := wire.ReadUint(s.Payload)
		if err != nil {
			return nil, fmt.Errorf("transport: update delta count: %w", err)
		}
		if n > uint64(len(rest))/8 {
			return nil, fmt.Errorf("transport: update delta claims %d values in %d bytes", n, len(rest))
		}
		if n == 0 && len(rest) == 0 {
			return nil, nil
		}
		delta := wire.GetFloat64s(int(n))
		if err := wire.Float64sInto(delta, rest); err != nil {
			wire.PutFloat64s(delta)
			return nil, fmt.Errorf("transport: update delta: %w", err)
		}
		return delta, nil
	}
	return nil, errors.New("transport: update envelope has no delta section")
}

// updatePayload decodes a /v1/update response. Limit must be set to the
// largest body the call accepts before the call: TryLocalUpdate sizes it to
// the delta it asked for, so a peer cannot make the stub buffer more.
type updatePayload struct {
	Limit int64
	Delta []float64
}

// DecodeBody implements bodyDecoder. The body is gathered in a pooled
// buffer; the decoded delta is a copy out of it that the caller owns.
func (up *updatePayload) DecodeBody(r io.Reader) error {
	buf, err := readBody(r, up.Limit)
	if err != nil {
		return fmt.Errorf("transport: read update body: %w", err)
	}
	defer buf.Release()
	if up.Delta, err = DecodeVersionedUpdate(buf.B); err != nil {
		return err
	}
	obs.M.TransportUpdateBytesRecv.Add(uint64(len(buf.B)))
	return nil
}
