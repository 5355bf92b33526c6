package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// FlightRecorder persists structured audit records — one JSON object per
// line — durably to a file and keeps the most recent records in memory for
// the /rounds endpoint. It is the "what happened" counterpart to the span
// ring's "when": per-round audit records (fl.RoundAudit) carry the cohort,
// drops, retries, applied decision and checkpoint path, so a chaos or load
// run can be audited after the fact without debug logs (DESIGN.md §10).
//
// Record appends are serialized by a mutex and flushed line-at-a-time (the
// file is opened O_APPEND; a crash can lose at most the final partial
// line, and JSONL readers skip it). Recording happens once per round, far
// off any alloc-gated path.
type FlightRecorder struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	keep   int
	recent []json.RawMessage
	start  int // recent is a ring: logical order starts here
	total  uint64
}

// NewFlightRecorder opens a recorder appending to path, keeping the last
// keep records (default 256 when keep <= 0) in memory. An empty path makes
// a memory-only recorder.
func NewFlightRecorder(path string, keep int) (*FlightRecorder, error) {
	if keep <= 0 {
		keep = 256
	}
	fr := &FlightRecorder{path: path, keep: keep}
	if path != "" {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("obs: flight recorder: %w", err)
		}
		fr.f = f
	}
	return fr, nil
}

// Record marshals v and appends it as one JSONL line.
func (fr *FlightRecorder) Record(v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("obs: flight record: %w", err)
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if len(fr.recent) < fr.keep {
		fr.recent = append(fr.recent, buf)
	} else {
		fr.recent[fr.start] = buf
		fr.start = (fr.start + 1) % fr.keep
	}
	fr.total++
	M.FlightRecords.Inc()
	if fr.f != nil {
		if _, err := fr.f.Write(append(buf, '\n')); err != nil {
			return fmt.Errorf("obs: flight write: %w", err)
		}
	}
	return nil
}

// Recent returns the retained records, oldest first.
func (fr *FlightRecorder) Recent() []json.RawMessage {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := make([]json.RawMessage, 0, len(fr.recent))
	for i := 0; i < len(fr.recent); i++ {
		out = append(out, fr.recent[(fr.start+i)%len(fr.recent)])
	}
	return out
}

// Total returns how many records have been recorded.
func (fr *FlightRecorder) Total() uint64 {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.total
}

// Path returns the backing file path ("" for memory-only recorders).
func (fr *FlightRecorder) Path() string { return fr.path }

// Close closes the backing file. Records after Close stay memory-only.
func (fr *FlightRecorder) Close() error {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	f := fr.f
	fr.f = nil
	if f == nil {
		return nil
	}
	return f.Close()
}

// flightRec is the process-wide recorder the /rounds endpoint serves.
var flightRec atomic.Pointer[FlightRecorder]

// SetFlightRecorder installs fr as the recorder behind /rounds (nil
// uninstalls).
func SetFlightRecorder(fr *FlightRecorder) { flightRec.Store(fr) }

// CurrentFlightRecorder returns the installed recorder, or nil.
func CurrentFlightRecorder() *FlightRecorder { return flightRec.Load() }
