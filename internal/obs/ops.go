package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// NewOpsHandler returns the live ops surface over a registry:
//
//	GET /metrics        — prometheus-style text snapshot
//	GET /metrics?format=json (or Accept: application/json) — JSON snapshot
//	GET /healthz        — liveness probe, always "ok"
//	GET /trace          — Chrome trace-event JSON of the span ring
//	GET /trace?format=records — raw span records (fedtrace's input)
//	GET /rounds         — the flight recorder's retained audit records
//	GET /debug/pprof/*  — the standard runtime profiles
//
// File-based profiles (-cpuprofile/-memprofile) remain the job of
// internal/profiling; this handler serves the on-demand counterparts.
func NewOpsHandler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		recs := DefaultSpans.Snapshot()
		if req.URL.Query().Get("format") == "records" {
			_ = json.NewEncoder(w).Encode(struct {
				Total   uint64       `json:"total"`
				Dropped uint64       `json:"dropped"`
				Spans   []SpanRecord `json:"spans"`
			}{Total: DefaultSpans.Total(), Dropped: DefaultSpans.Dropped(), Spans: recs})
			return
		}
		_ = WriteChromeTrace(w, recs)
	})
	mux.HandleFunc("/rounds", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fr := CurrentFlightRecorder()
		resp := struct {
			Total   uint64            `json:"total"`
			Path    string            `json:"path"`
			Records []json.RawMessage `json:"records"`
		}{Records: []json.RawMessage{}}
		if fr != nil {
			resp.Total, resp.Path, resp.Records = fr.Total(), fr.Path(), fr.Recent()
		}
		_ = json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		SampleProcess()
		if req.URL.Query().Get("format") == "json" ||
			req.Header.Get("Accept") == "application/json" {
			w.Header().Set("Content-Type", "application/json")
			_ = r.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = r.WriteText(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// OpsServer is a running ops endpoint (see ServeOps).
type OpsServer struct {
	server *http.Server
	addr   string
}

// ServeOps starts the ops endpoint for registry r on addr (":9090",
// "127.0.0.1:0" for an ephemeral port) on a background goroutine and
// returns once the listener is bound. The endpoint is read-only
// diagnostics; a failure to serve never takes the process down — the
// terminal error is logged as a warning instead.
func ServeOps(addr string, r *Registry) (*OpsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: ops listen: %w", err)
	}
	return serveOps(ln, r), nil
}

// serveOps serves the ops endpoint for r on ln until Shutdown, logging any
// other end of serving.
func serveOps(ln net.Listener, r *Registry) *OpsServer {
	srv := &http.Server{Handler: NewOpsHandler(r), ReadHeaderTimeout: 10 * time.Second}
	o := &OpsServer{server: srv, addr: ln.Addr().String()}
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			L().Warn("obs: ops endpoint stopped serving", "addr", o.addr, "err", err)
		}
	}()
	return o
}

// Addr returns the bound listen address.
func (o *OpsServer) Addr() string { return o.addr }

// Shutdown stops the endpoint gracefully.
func (o *OpsServer) Shutdown(ctx context.Context) error {
	return o.server.Shutdown(ctx)
}
