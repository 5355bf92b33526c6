package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// Accuracy responses (DESIGN.md §15): a KindAccuracy envelope whose one
// section is the reported accuracy, a raw little-endian float64.
const secAccuracyValue = 1

// accuracyContentType marks an accuracy response.
const accuracyContentType = "application/x-fedcleanse-accuracy"

// appendAccuracy appends the KindAccuracy envelope carrying acc.
func appendAccuracy(dst []byte, acc float64) []byte {
	w := wire.NewWriter(dst, wire.KindAccuracy)
	w.Section(secAccuracyValue)
	w.B = binary.LittleEndian.AppendUint64(w.B, math.Float64bits(acc))
	return w.Finish()
}

// decodeAccuracy parses a KindAccuracy envelope, bit-exactly. Unknown
// sections are skipped; a missing or wrong-sized value section is an error.
func decodeAccuracy(data []byte) (float64, error) {
	secs, err := wire.DecodeKind(data, wire.KindAccuracy)
	if err != nil {
		return 0, err
	}
	for _, s := range secs {
		if s.Type != secAccuracyValue {
			continue
		}
		if len(s.Payload) != 8 {
			return 0, fmt.Errorf("transport: accuracy value is %d bytes, want 8", len(s.Payload))
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(s.Payload)), nil
	}
	return 0, errors.New("transport: accuracy envelope has no value section")
}

// accuracyPayload decodes a /v1/accuracy response.
type accuracyPayload struct {
	Accuracy float64
}

// DecodeBody implements bodyDecoder. The envelope is 28 bytes; the read is
// capped at the slack any envelope gets.
func (ap *accuracyPayload) DecodeBody(r io.Reader) error {
	buf, err := readBody(r, envelopeSlack)
	if err != nil {
		return fmt.Errorf("transport: read accuracy body: %w", err)
	}
	defer buf.Release()
	ap.Accuracy, err = decodeAccuracy(buf.B)
	return err
}
