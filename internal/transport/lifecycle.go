package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// lifecycle states.
const (
	lsIdle = iota
	lsServing
	lsClosed
)

// lifecycle is the serve-once state machine of a Fleet's HTTP server:
// bind a listener, serve on a background goroutine, deliver the terminal
// error on a buffered channel, shut down at most once. Serve can be called at most once; a second call, or a
// call after shutdown, is an error.
type lifecycle struct {
	mu       sync.Mutex
	state    int
	listener net.Listener
	server   *http.Server
	errc     chan error
}

// serve binds addr ("127.0.0.1:0" for an ephemeral port), starts serving
// h on a background goroutine and returns the bound address.
func (l *lifecycle) serve(addr string, h http.Handler) (string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch l.state {
	case lsServing:
		return "", errors.New("transport: Serve called twice")
	case lsClosed:
		return "", errors.New("transport: Serve after Shutdown")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: listen: %w", err)
	}
	l.listener = ln
	l.server = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	l.errc = make(chan error, 1)
	l.state = lsServing
	srv, errc := l.server, l.errc
	go func() {
		err := srv.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		errc <- err
	}()
	return ln.Addr().String(), nil
}

// errChan returns the terminal-error channel (nil before serve).
func (l *lifecycle) errChan() <-chan error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.errc
}

// shutdown stops the server gracefully. Safe before serve and safe to
// repeat; after shutdown the lifecycle cannot serve again.
func (l *lifecycle) shutdown(ctx context.Context) error {
	l.mu.Lock()
	srv := l.server
	l.state = lsClosed
	l.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}
