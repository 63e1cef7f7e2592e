package controlplane

// Client is the Go-side consumer of the control plane API — what
// `spice -server ...` speaks. It is deliberately thin: JSON in, JSON
// out, package errors reconstructed from status codes so callers can
// errors.Is against the same sentinels the server uses.
//
// Retries are opt-in (RetryMax) and deliberately narrow: only
// responses that carry a Retry-After header are retried — the
// server's explicit "this is transient, come back" signal (shed load,
// degraded storage). A 429 (standing quota) or any other error returns
// immediately; waiting would not help. The delay is the larger of the
// server's hint and a decorrelated-jitter backoff from the shared
// internal/backoff policy, restarted after every success so one spell
// of refusals does not stretch the next.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"spice/internal/backoff"
	"spice/internal/campaign"
	"spice/internal/dist"
	"spice/internal/trace"
)

// clientRetryPolicy paces client retries between the server's
// Retry-After hints: fast enough to catch a server that is back within
// a second, slow enough that a refused fleet thins out instead of
// hammering.
var clientRetryPolicy = backoff.Policy{Base: 100 * time.Millisecond, Max: 5 * time.Second}

// Client talks to a control plane over HTTP.
type Client struct {
	// Base is the server address, host:port or a full http:// URL.
	Base string
	// HTTP is the client to use (nil = http.DefaultClient).
	HTTP *http.Client
	// RetryMax is how many times a request refused with a Retry-After
	// header (503 shed/degraded) is retried before the error is
	// surfaced. 0 disables retries.
	RetryMax int

	mu sync.Mutex
	bo *backoff.Decorrelated
}

func (c *Client) url(path string) string {
	base := c.Base
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	return base + path
}

// nextDelay draws the client-side retry delay. The decorrelated
// generator is seeded per client instance from the wall clock, so a
// herd of clients refused together spreads back out.
func (c *Client) nextDelay() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bo == nil {
		seed := backoff.Seed(c.Base) ^ uint64(time.Now().UnixNano())
		c.bo = clientRetryPolicy.Decorrelated(seed)
	}
	return c.bo.Next()
}

// resetDelay restarts the retry sequence after a successful exchange.
func (c *Client) resetDelay() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bo != nil {
		c.bo.Reset()
	}
}

func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return err
		}
	}
	for attempt := 0; ; attempt++ {
		hint, err := c.doOnce(ctx, method, path, payload, out)
		if err == nil {
			c.resetDelay()
			return nil
		}
		if hint < 0 || attempt >= c.RetryMax {
			return err
		}
		d := c.nextDelay()
		if hint > d {
			d = hint
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(d):
		}
	}
}

// doOnce performs one HTTP exchange. The returned hint is the
// server's Retry-After as a duration when the response is retryable,
// or -1 when it is not (success, hard error, or no header).
func (c *Client) doOnce(ctx context.Context, method, path string, payload []byte, out any) (time.Duration, error) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return -1, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return -1, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var apiErr apiError
		msg := resp.Status
		body, _ := io.ReadAll(resp.Body)
		if json.Unmarshal(body, &apiErr) == nil && apiErr.Error != "" {
			msg = apiErr.Error
		}
		if apiErr.ID != "" && out != nil {
			// A duplicate submission's body names the existing campaign;
			// out gets it beside the error.
			_ = json.Unmarshal(body, out)
		}
		// The server's message usually starts with the sentinel's own
		// text; re-wrap it without doubling that prefix.
		wrap := func(sentinel error) error {
			if rest, ok := strings.CutPrefix(msg, sentinel.Error()); ok {
				return fmt.Errorf("%w%s", sentinel, rest)
			}
			return fmt.Errorf("%w: %s", sentinel, msg)
		}
		hint := retryAfter(resp)
		// Where several conditions share a status, the body's sentinel
		// prefix tells them apart so errors.Is keeps working.
		for _, sentinel := range statusSentinels[resp.StatusCode] {
			if strings.HasPrefix(msg, sentinel.Error()) {
				return hint, wrap(sentinel)
			}
		}
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			return -1, wrap(ErrQuotaExceeded)
		case http.StatusNotFound:
			return -1, wrap(ErrNotFound)
		case http.StatusServiceUnavailable:
			return hint, wrap(ErrClosed)
		}
		return -1, fmt.Errorf("controlplane: %s %s: %s", method, path, msg)
	}
	if out == nil {
		return -1, nil
	}
	return -1, json.NewDecoder(resp.Body).Decode(out)
}

// statusSentinels lists the sentinels an error body of each status can
// start with.
var statusSentinels = map[int][]error{
	http.StatusBadRequest:         {ErrBadSpec},
	http.StatusConflict:           {ErrDuplicate, ErrNotDone},
	http.StatusServiceUnavailable: {ErrStorageDegraded, ErrOverloaded},
}

// retryAfter parses the Retry-After header (delay-seconds form) into
// a duration, or -1 when absent/unparseable — absence is the signal
// that the refusal is not transient.
func retryAfter(resp *http.Response) time.Duration {
	h := resp.Header.Get("Retry-After")
	if h == "" {
		return -1
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return -1
	}
	return time.Duration(secs) * time.Second
}

// Submit submits a campaign and returns its ID. A duplicate submission
// returns the existing campaign's ID together with ErrDuplicate, as
// Server.Submit does.
func (c *Client) Submit(ctx context.Context, spec campaign.Spec, tag dist.CampaignTag) (string, error) {
	var resp SubmitResponse
	err := c.do(ctx, http.MethodPost, "/api/v1/campaigns", SubmitRequest{
		Tenant: tag.Tenant, Priority: tag.Priority, Name: tag.Name, Spec: spec,
	}, &resp)
	return resp.ID, err
}

// List returns campaigns, optionally filtered by tenant ("" = all).
func (c *Client) List(ctx context.Context, tenant string) ([]Campaign, error) {
	path := "/api/v1/campaigns"
	if tenant != "" {
		path += "?tenant=" + url.QueryEscape(tenant)
	}
	var out []Campaign
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Get returns one campaign's state.
func (c *Client) Get(ctx context.Context, id string) (Campaign, error) {
	var out Campaign
	err := c.do(ctx, http.MethodGet, "/api/v1/campaigns/"+id, nil, &out)
	return out, err
}

// Cancel cancels a campaign.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/api/v1/campaigns/"+id, nil, nil)
}

// Result fetches a completed campaign's collated work logs.
func (c *Client) Result(ctx context.Context, id string) (map[campaign.Combo][]*trace.WorkLog, error) {
	var list []ComboLogs
	if err := c.do(ctx, http.MethodGet, "/api/v1/campaigns/"+id+"/result", nil, &list); err != nil {
		return nil, err
	}
	return UnflattenResult(list), nil
}

// Stats fetches the unified stats view: queue depths per tenant plus
// the embedded coordinator's dist.Snapshot.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var out StatsResponse
	err := c.do(ctx, http.MethodGet, "/api/v1/stats", nil, &out)
	return out, err
}

// WaitDone polls until the campaign reaches a terminal state or ctx
// ends, returning the final view. A campaign that failed or was
// canceled is not an error here — inspect State.
func (c *Client) WaitDone(ctx context.Context, id string, poll time.Duration) (Campaign, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		camp, err := c.Get(ctx, id)
		if err != nil {
			return Campaign{}, err
		}
		if camp.State.terminal() {
			return camp, nil
		}
		select {
		case <-ctx.Done():
			return camp, ctx.Err()
		case <-t.C:
		}
	}
}
