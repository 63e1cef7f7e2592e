package obs

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestServerEndpoints boots the debug server on an ephemeral port and
// checks /metrics, /healthz, /debug/pprof/ and /debug/events.
func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterCollector(func(e *Emitter) { e.Counter("up_total", "demo", 7) })
	log := NewEventLog(nil, 8)
	log.Emit(Event{Name: "boot"})
	healthyErr := error(nil)
	readyErr := errors.New("journal replay in progress")
	s, err := Serve("127.0.0.1:0", reg, log,
		func() error { return healthyErr },
		func() error { return readyErr })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "up_total 7") {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: code=%d body=%q", code, body)
	}
	// Alive but not ready: /healthz green, /readyz 503 — the warm-up
	// window (journal replay) a load balancer must respect.
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "replay") {
		t.Fatalf("/readyz while warming: code=%d body=%q, want 503", code, body)
	}
	readyErr = nil
	if code, body := get("/readyz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/readyz ready: code=%d body=%q", code, body)
	}
	healthyErr = errors.New("draining")
	if code, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz unhealthy: code=%d, want 503", code)
	}
	healthyErr = nil
	if code, body := get("/debug/events"); code != 200 || !strings.Contains(body, `"event":"boot"`) {
		t.Fatalf("/debug/events: code=%d body=%q", code, body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: code=%d body-len=%d", code, len(body))
	}
}

// TestServerNilParts checks the mux degrades gracefully with nil
// registry/log/health, and that a nil *Server closes without panic.
func TestServerNilParts(t *testing.T) {
	s, err := Serve("127.0.0.1:0", nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics with nil registry: %d", resp.StatusCode)
	}
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err = http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s with nil probes: %d", path, resp.StatusCode)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var nilS *Server
	if nilS.Addr() != "" || nilS.Close() != nil {
		t.Fatal("nil Server should be inert")
	}
}
