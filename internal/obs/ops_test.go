package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func opsFixture() (*Registry, http.Handler) {
	r := NewRegistry()
	r.Counter("fl_rounds_total").Add(4)
	r.Gauge("parallel_for_queue_depth").Set(2)
	r.Histogram("fl_round_seconds", []float64{1, 10}).Observe(0.5)
	return r, NewOpsHandler(r)
}

func TestOpsMetricsText(t *testing.T) {
	_, h := opsFixture()
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"fl_rounds_total 4",
		"parallel_for_queue_depth 2",
		`fl_round_seconds_bucket{le="1"} 1`,
		"fl_round_seconds_count 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestOpsMetricsJSON(t *testing.T) {
	_, h := opsFixture()
	srv := httptest.NewServer(h)
	defer srv.Close()

	for _, url := range []string{srv.URL + "/metrics?format=json", srv.URL + "/metrics"} {
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		req.Header.Set("Accept", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var s Snapshot
		err = json.NewDecoder(resp.Body).Decode(&s)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
		if s.Counters["fl_rounds_total"] != 4 {
			t.Errorf("GET %s: fl_rounds_total = %d, want 4", url, s.Counters["fl_rounds_total"])
		}
		hs, ok := s.Histograms["fl_round_seconds"]
		if !ok || hs.Count != 1 || hs.Sum != 0.5 {
			t.Errorf("GET %s: histogram snapshot = %+v", url, hs)
		}
	}
}

func TestOpsHealthz(t *testing.T) {
	_, h := opsFixture()
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("GET /healthz: %d %q", resp.StatusCode, body)
	}
}

func TestOpsPprofIndex(t *testing.T) {
	_, h := opsFixture()
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("GET /debug/pprof/: %d, body misses profile index", resp.StatusCode)
	}
}

// TestServeOpsLifecycle drives the background server end to end: bind an
// ephemeral port, probe it over real TCP, shut down cleanly.
func TestServeOpsLifecycle(t *testing.T) {
	r, _ := opsFixture()
	o, err := ServeOps("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + o.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz over TCP: %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := o.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// lockedBuffer is a bytes.Buffer a logging goroutine and the test share.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeOpsLogsServeFailure: an ops endpoint whose listener dies under
// it leaves one warning naming the error, since nothing else watches it.
func TestServeOpsLogsServeFailure(t *testing.T) {
	var logs lockedBuffer
	SetLogger(slog.New(NewConsoleHandler(&logs, slog.LevelInfo)))
	defer SetLogger(nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := opsFixture()
	o := serveOps(ln, r)
	defer o.Shutdown(context.Background())
	ln.Close()
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(logs.String(), "WARN") && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // a second warning would land by now
	out := logs.String()
	if n := strings.Count(out, "WARN"); n != 1 {
		t.Fatalf("%d warnings after the listener closed, want 1:\n%s", n, out)
	}
	if !strings.Contains(out, net.ErrClosed.Error()) {
		t.Errorf("the warning does not name the serve error %q:\n%s", net.ErrClosed, out)
	}
}
