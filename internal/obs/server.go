package obs

// HTTP debug server: /metrics (Prometheus text), /healthz, /readyz,
// /debug/pprof/* (net/http/pprof) and /debug/events (recent event ring
// as JSON). One server mounts on the coordinator (spice -obs-addr) and
// one on each worker (spiced -obs-addr) — the RealityGrid idea of
// attaching to a live simulation, recast as scrape endpoints.
//
// Liveness and readiness are distinct probes: /healthz answers "is the
// process up" and /readyz answers "may traffic be routed here" — a
// control plane replaying its journal is alive but not yet ready, and a
// load balancer that conflates the two would route submissions into a
// queue that still has ghosts.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// Server is a running debug endpoint.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// NewMux builds the debug mux for a registry, event log, liveness probe
// and readiness probe. Any of the four may be nil; the matching
// endpoints degrade gracefully (empty metrics, empty events,
// always-healthy, ready-iff-healthy).
func NewMux(reg *Registry, events *EventLog, healthy, ready func() error) *http.ServeMux {
	probe := func(check func() error) http.HandlerFunc {
		return func(w http.ResponseWriter, req *http.Request) {
			if check != nil {
				if err := check(); err != nil {
					http.Error(w, err.Error(), http.StatusServiceUnavailable)
					return
				}
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ok")
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		var b bytes.Buffer
		if reg != nil {
			if err := reg.WritePrometheus(&b); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(b.Bytes())
	})
	mux.HandleFunc("/healthz", probe(healthy))
	// Readiness implies liveness: a nil ready probe falls back to the
	// health check, so servers without a warm-up phase stay ready exactly
	// while they are healthy.
	if ready == nil {
		ready = healthy
	}
	mux.HandleFunc("/readyz", probe(ready))
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, req *http.Request) {
		n, _ := strconv.Atoi(req.URL.Query().Get("n"))
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		for _, ev := range events.Recent(n) {
			enc.Encode(ev)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the debug server on addr (e.g. "127.0.0.1:0") and
// returns once the listener is bound, so Addr() is immediately valid.
// healthy backs /healthz (liveness), ready backs /readyz (readiness —
// nil falls back to healthy).
func Serve(addr string, reg *Registry, events *EventLog, healthy, ready func() error) (*Server, error) {
	return ServeHandler(addr, NewMux(reg, events, healthy, ready))
}

// ServeHandler starts a debug server on addr with a caller-built
// handler — typically a NewMux with extra routes mounted on it (the
// control plane API rides the same listener as /metrics and /readyz).
func ServeHandler(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{
		ln: ln,
		// A stalled or malicious scraper must not pin a connection (and
		// its goroutine) forever. WriteTimeout is generous because
		// /debug/pprof/profile and /debug/pprof/trace stream for their
		// requested duration — profiles longer than ~2 minutes are cut.
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down and waits for the serve loop to exit.
// Nil-safe, so deferred cleanup works whether or not -obs-addr was set.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	err := s.srv.Close()
	<-s.done
	return err
}
