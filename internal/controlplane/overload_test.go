package controlplane

// Overload-protection drills: the HTTP concurrency limiter, and the
// client's Retry-After-driven retry loop with its decorrelated backoff.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"spice/internal/dist"
)

// TestHTTPConcurrencyShed drives the request-concurrency limiter: with
// the semaphore held full, any API call is shed with 503 + Retry-After
// immediately; once a slot frees the same call succeeds.
func TestHTTPConcurrencyShed(t *testing.T) {
	s, _ := newHarness(t, Config{MaxConcurrent: 1}, 0)
	s.Start()
	mux := http.NewServeMux()
	s.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	s.httpSem <- struct{}{} // occupy the only slot
	resp, err := http.Get(srv.URL + "/api/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated GET returned %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After header")
	}
	if s.httpSheds.Load() == 0 {
		t.Fatal("shed counter not incremented")
	}

	<-s.httpSem
	resp, err = http.Get(srv.URL + "/api/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after slot freed returned %d, want 200", resp.StatusCode)
	}
}

// TestClientRetryHonorsRetryAfter exercises the client retry loop
// against a scripted server: refusals carrying Retry-After — here the
// 503 shed — are retried, refusals without it — the standing quota's
// 429 — are surfaced immediately.
func TestClientRetryHonorsRetryAfter(t *testing.T) {
	var hits int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		if hits <= 2 {
			w.Header().Set("Retry-After", "0")
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": ErrOverloaded.Error()})
			return
		}
		writeJSON(w, http.StatusAccepted, SubmitResponse{ID: "ok", State: StateQueued})
	}))
	t.Cleanup(srv.Close)

	cl := &Client{Base: srv.URL, RetryMax: 5}
	id, err := cl.Submit(context.Background(), specA(), dist.CampaignTag{Tenant: "t"})
	if err != nil {
		t.Fatalf("retried submit failed: %v", err)
	}
	if id != "ok" || hits != 3 {
		t.Fatalf("got id %q after %d hits, want ok after 3", id, hits)
	}

	// A 429 (quota, no Retry-After) must not be retried even with
	// retries enabled.
	hits = 0
	quota := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": ErrQuotaExceeded.Error()})
	}))
	t.Cleanup(quota.Close)
	cl = &Client{Base: quota.URL, RetryMax: 5}
	if _, err := cl.Submit(context.Background(), specA(), dist.CampaignTag{Tenant: "t"}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("quota refusal returned %v, want ErrQuotaExceeded", err)
	}
	if hits != 1 {
		t.Fatalf("quota 429 was retried: %d hits", hits)
	}
}

// TestClientRetryBudgetExhaustion: RetryMax is the client's whole retry
// budget. A server that keeps refusing with Retry-After gets the first
// attempt plus RetryMax retries, and then the refusal is surfaced.
func TestClientRetryBudgetExhaustion(t *testing.T) {
	var hits int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		w.Header().Set("Retry-After", "0")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": ErrOverloaded.Error()})
	}))
	t.Cleanup(srv.Close)

	cl := &Client{Base: srv.URL, RetryMax: 1}
	_, err := cl.Submit(context.Background(), specA(), dist.CampaignTag{Tenant: "t"})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit past RetryMax returned %v, want ErrOverloaded", err)
	}
	if hits != 2 { // first attempt + the one retry RetryMax allows
		t.Fatalf("server saw %d hits, want 2", hits)
	}
}

// TestClientBackoffResetsAfterSuccess: a success restarts the client's
// decorrelated backoff, so a spell of refusals does not stretch the
// first delay of the next one — after it the next delay is drawn from
// [Base, 3·Base) again, not from up to 3× the stretched one.
func TestClientBackoffResetsAfterSuccess(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, []Campaign{})
	}))
	t.Cleanup(srv.Close)
	for seed := uint64(1); seed <= 5; seed++ {
		cl := &Client{Base: srv.URL, RetryMax: 4}
		cl.bo = clientRetryPolicy.Decorrelated(seed)
		for i := 0; i < 8; i++ { // the delays a spell of refusals draws
			cl.nextDelay()
		}
		if _, err := cl.List(context.Background(), ""); err != nil {
			t.Fatal(err)
		}
		if d := cl.nextDelay(); d >= 3*clientRetryPolicy.Base {
			t.Fatalf("seed %d: first delay after a success is %v, want below %v", seed, d, 3*clientRetryPolicy.Base)
		}
	}
}
