package eval

import (
	"encoding/binary"
	"hash/fnv"
	"sync"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
)

// fixtures holds every federation the package's tests train, by
// scenarioKey, for the life of the test binary.
var (
	fixturesMu sync.Mutex
	fixtures   = map[string]*Trained{}
)

// trained returns the trained federation of s, shared with every other
// test that asks for the same scenario: it trains on the first call only.
// A test must leave the fixture as it found it — clone the model before
// mutating it (Trained.Defend does) and restore any participant setting it
// flips — so the package passes in any test order. A cleanup fails the
// calling test when the shared model's parameters changed during it.
func trained(t *testing.T, s Scenario) *Trained {
	t.Helper()
	key := scenarioKey(s)
	fixturesMu.Lock()
	tr := fixtures[key]
	if tr == nil {
		tr = Run(s)
		fixtures[key] = tr
	}
	fixturesMu.Unlock()
	before := paramsHash(tr.Server.Model)
	t.Cleanup(func() {
		if after := paramsHash(tr.Server.Model); after != before {
			t.Errorf("%s changed the shared %s (%v) fixture's parameters (hash %016x, was %016x): clone the model before mutating it",
				t.Name(), s.Name, s.Backend, after, before)
		}
	})
	return tr
}

// paramsHash is an FNV-1a hash of m's parameter bits.
func paramsHash(m *nn.Sequential) uint64 {
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, m.ParamsVector())
	return h.Sum64()
}

// setReportQuant flips every participant's report precision in place and
// restores float64 reports when the test ends. Report precision never
// feeds back into training, so one trained federation serves both.
func setReportQuant(t *testing.T, parts []fl.Participant, q metrics.ReportQuant) {
	set := func(q metrics.ReportQuant) {
		for _, p := range parts {
			p.(interface{ SetReportQuant(metrics.ReportQuant) }).SetReportQuant(q)
		}
	}
	set(q)
	t.Cleanup(func() { set(metrics.ReportFloat64) })
}
