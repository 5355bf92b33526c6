package fl

import (
	"fmt"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/obs"
)

// RoundAudit is one federated round's flight-recorder record (DESIGN.md
// §16): the structured, queryable counterpart of the round's log lines.
// Selected/Completed/Dropped/Errors/Applied/PeakInFlight mirror the
// round's RoundResult field for field; the rest is round context a
// post-mortem needs — the trace ID tying the record to its span tree, the
// quorum threshold in effect, retry/attempt counts, the resume prefix of
// an interrupted round, and the boundary checkpoint that covers it.
// TestAccuracy and AttackSuccessRate are attached by the driver's
// AuditAmend hook when it evaluates the round; they stay nil otherwise.
type RoundAudit struct {
	Round int         `json:"round"`
	Trace obs.TraceID `json:"trace"`

	// RoundResult mirror (see RoundResult for semantics).
	Selected     []int          `json:"selected"`
	Completed    []int          `json:"completed"`
	Dropped      []int          `json:"dropped"`
	Errors       map[int]string `json:"errors,omitempty"`
	Applied      bool           `json:"applied"`
	PeakInFlight int            `json:"peak_in_flight"`

	// Round context.
	Quorum     int    `json:"quorum"` // updates required to apply
	Aggregator string `json:"aggregator"`
	Streaming  bool   `json:"streaming"`
	Resumed    bool   `json:"resumed"`
	// ResumePrefix is the fold count restored from the partial checkpoint
	// when Resumed; the round re-collected only the suffix past it.
	ResumePrefix int `json:"resume_prefix"`
	// Retries/Attempts are the transport retry and HTTP attempt counts
	// observed during this round (counter deltas across the round; exact
	// when one server drives the process's transport, which is every
	// shipped driver).
	Retries  uint64 `json:"retries"`
	Attempts uint64 `json:"attempts"`
	// Checkpoint is the most recent checkpoint file written by the end of
	// the round ("" when the server runs without durability).
	Checkpoint string  `json:"checkpoint,omitempty"`
	DurationMS float64 `json:"duration_ms"`

	// Evaluation results, attached via AuditAmend when the driver
	// evaluates this round.
	TestAccuracy      *float64 `json:"test_accuracy,omitempty"`
	AttackSuccessRate *float64 `json:"attack_success_rate,omitempty"`
}

// auditFromResult builds the audit record mirroring res.
func auditFromResult(res *RoundResult) RoundAudit {
	a := RoundAudit{
		Round:        res.Round,
		Selected:     res.Selected,
		Completed:    res.Completed,
		Dropped:      res.Dropped,
		Applied:      res.Applied,
		PeakInFlight: res.PeakInFlight,
	}
	if len(res.Errs) > 0 {
		a.Errors = make(map[int]string, len(res.Errs))
		for id, err := range res.Errs {
			a.Errors[id] = err.Error()
		}
	}
	return a
}

// recordAudit writes one round's audit record to the installed flight
// recorder (a no-op without one). It runs once per round, after the
// round's span has ended — far off every alloc-gated path — and a failed
// write only logs: auditing never fails a round.
func (s *Server) recordAudit(res *RoundResult, trace obs.TraceID, dur time.Duration,
	resumed *PartialRound, retries, attempts uint64) {
	if s.Audit == nil {
		return
	}
	a := auditFromResult(res)
	a.Trace = trace
	a.Quorum = s.quorumCount(len(res.Selected))
	a.Aggregator = fmt.Sprintf("%T", s.aggregator())
	a.Streaming = s.cfg.Streaming
	if a.Resumed = resumed != nil; a.Resumed {
		a.ResumePrefix = resumed.FoldN
	}
	a.Retries = retries
	a.Attempts = attempts
	a.DurationMS = float64(dur.Nanoseconds()) / 1e6
	if s.ckpt != nil {
		a.Checkpoint = s.ckpt.LastPath()
	}
	if s.AuditAmend != nil {
		s.AuditAmend(&a)
	}
	if err := s.Audit.Record(a); err != nil {
		obs.L().Warn("fl: audit record failed", "round", res.Round, "err", err)
	}
}
