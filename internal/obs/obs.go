// Package obs is the repository's observability layer: structured events,
// an allocation-free metrics registry and span-style stage tracing, plus
// the ops HTTP endpoint that exposes them from a running process.
//
// The package is built around two invariants:
//
//  1. Libraries stay silent unless wired. The package-level logger defaults
//     to a nop handler, so importing an instrumented package (internal/fl,
//     internal/core, internal/transport) produces no output until a command
//     installs a handler via SetLogger — typically through the -log-level
//     and -log-json flags registered by AddLogFlags.
//
//  2. Instrumentation is free on the hot path and deterministic everywhere.
//     Counters, gauges and histograms are pre-registered at construction
//     time; warm Inc/Add/Set/Observe calls and span start/end pairs perform
//     zero heap allocations (gated by make alloc-test). No instrumentation
//     path reads or mutates model state, worker scheduling or RNG streams,
//     so the bit-identity suites (workers 1/2/8, chaos drop-equivalence)
//     hold with metrics enabled — metrics record what happened, they never
//     influence it.
//
// Event taxonomy, the metric naming scheme and the determinism argument
// are documented in DESIGN.md §10.
package obs

import (
	"context"
	"log/slog"
	"sync/atomic"
)

// defaultLogger holds the process-wide event logger. It is stored through
// an atomic pointer so instrumented libraries can read it from any
// goroutine without locking.
var defaultLogger atomic.Pointer[slog.Logger]

func init() {
	defaultLogger.Store(slog.New(nopHandler{}))
}

// nopHandler drops everything and reports every level disabled, so
// instrumentation call sites guarded by Enabled skip attribute
// construction entirely.
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

// NopLogger returns a logger that discards every record (the package
// default). SetLogger(NopLogger()) silences the process again.
func NopLogger() *slog.Logger { return slog.New(nopHandler{}) }

// SetLogger installs the process-wide event logger. nil restores the nop
// default. Safe for concurrent use.
func SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(nopHandler{})
	}
	defaultLogger.Store(l)
}

// L returns the current process-wide event logger. The result is never
// nil; with no handler installed it is the nop logger.
func L() *slog.Logger { return defaultLogger.Load() }

// Enabled reports whether the current logger handles records at the given
// level. Instrumentation uses it to skip attribute construction on
// disabled levels, which is what keeps the nop-wired hot path
// allocation-free.
func Enabled(level slog.Level) bool {
	return L().Enabled(context.Background(), level)
}
