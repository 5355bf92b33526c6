package wire

import (
	"fmt"
	"io"
	"slices"
	"sync"
)

// Buffer is a pooled, growable byte slice: where payload bytes live while
// they cross one call — encoded before a write, gathered from a reader
// before a decode. The ownership rule (DESIGN.md §7) is that pooled bytes
// never escape the call that took the Buffer: whatever is decoded out of B
// must be a copy — for a parameter-sized vector, into one from GetFloat64s —
// and nothing may reference B after Release. A Buffer that outlives its
// call is refcounted by its holder, and the last reference releases it
// (transport's request bodies, DESIGN.md §8).
type Buffer struct {
	B []byte
}

var bufferPool = sync.Pool{New: func() any { return new(Buffer) }}

// GetBuffer takes an empty Buffer from the pool. Its capacity is whatever
// an earlier payload grew it to, so a process moving same-sized payloads
// stops allocating for them after the first few.
func GetBuffer() *Buffer {
	b := bufferPool.Get().(*Buffer)
	b.B = b.B[:0]
	return b
}

// Release returns b to the pool. The caller must not touch b or b.B
// afterwards.
func (b *Buffer) Release() { bufferPool.Put(b) }

// minRead is the smallest read ReadAll offers the reader.
const minRead = 4096

// ReadAll appends everything r yields to b.B, refusing more than limit
// bytes in total: the reader is never offered room past limit+1, so an
// endless or lying stream costs at most that much memory before it is
// rejected. Capacity comes from the pool and then doubles; it is never
// taken from a length the peer merely claims (a Content-Length, a header
// field).
func (b *Buffer) ReadAll(r io.Reader, limit int64) error {
	for {
		if len(b.B) == cap(b.B) {
			b.B = slices.Grow(b.B, max(len(b.B), minRead))
		}
		free := b.B[len(b.B):cap(b.B)]
		if room := limit + 1 - int64(len(b.B)); int64(len(free)) > room {
			free = free[:room]
		}
		n, err := r.Read(free)
		b.B = b.B[:len(b.B)+n]
		if int64(len(b.B)) > limit {
			return fmt.Errorf("wire: payload exceeds %d-byte budget", limit)
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
