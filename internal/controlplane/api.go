package controlplane

// HTTP/JSON API, mounted alongside the obs debug endpoints:
//
//	POST   /api/v1/campaigns            submit (202 + {id,state})
//	GET    /api/v1/campaigns[?tenant=]  list
//	GET    /api/v1/campaigns/{id}        inspect one
//	DELETE /api/v1/campaigns/{id}        cancel
//	GET    /api/v1/campaigns/{id}/result collated work logs (done only)
//
// Everything is JSON; errors come back as {"error": "..."} with the
// status carrying the semantics (400 unrunnable spec, 429 quota, 409
// duplicate/not-done, 404 unknown, 503 closed).

import (
	"encoding/json"
	"errors"
	"net/http"
	"sort"

	"spice/internal/campaign"
	"spice/internal/dist"
	"spice/internal/trace"
)

// SubmitRequest is the POST /api/v1/campaigns body.
type SubmitRequest struct {
	Tenant   string        `json:"tenant,omitempty"`
	Priority int           `json:"priority,omitempty"`
	Name     string        `json:"name,omitempty"`
	Spec     campaign.Spec `json:"spec"`
}

// SubmitResponse acknowledges an accepted submission.
type SubmitResponse struct {
	ID    string `json:"id"`
	State State  `json:"state"`
}

// ComboLogs is one (kappa, velocity) cell of a campaign result. The
// wire result is an ordered list rather than a map because the natural
// in-process type, map[campaign.Combo][]*trace.WorkLog, has a struct
// key and cannot JSON-marshal.
type ComboLogs struct {
	Kappa    float64          `json:"kappa"`
	Velocity float64          `json:"velocity"`
	Logs     []*trace.WorkLog `json:"logs"`
}

// FlattenResult converts a collated result map to the ordered wire
// form (kappa-major, velocity-minor, matching campaign.Spec.Tasks).
func FlattenResult(m map[campaign.Combo][]*trace.WorkLog) []ComboLogs {
	out := make([]ComboLogs, 0, len(m))
	for c, logs := range m {
		out = append(out, ComboLogs{Kappa: c.KappaPN, Velocity: c.VAns, Logs: logs})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kappa != out[j].Kappa {
			return out[i].Kappa < out[j].Kappa
		}
		return out[i].Velocity < out[j].Velocity
	})
	return out
}

// UnflattenResult is the inverse of FlattenResult, restoring the
// in-process map form on the client side.
func UnflattenResult(list []ComboLogs) map[campaign.Combo][]*trace.WorkLog {
	m := make(map[campaign.Combo][]*trace.WorkLog, len(list))
	for _, cl := range list {
		m[campaign.Combo{KappaPN: cl.Kappa, VAns: cl.Velocity}] = cl.Logs
	}
	return m
}

// StatsResponse is the GET /api/v1/stats body: the control plane's
// per-tenant queue depths plus the embedded coordinator's unified
// dist.Snapshot — one scrape covers both layers, and the client renders
// the dist half through the same statsfmt tables a local run prints.
type StatsResponse struct {
	Queue []QueueStats  `json:"queue"`
	Dist  dist.Snapshot `json:"dist"`
}

// Mount registers the API handlers on mux. Pair it with obs.NewMux so
// one listener serves both the API and /metrics, /healthz, /readyz.
// When Config.MaxConcurrent is set every handler runs behind the
// request-concurrency limiter.
func (s *Server) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /api/v1/campaigns", s.limited(s.handleSubmit))
	mux.HandleFunc("GET /api/v1/campaigns", s.limited(s.handleList))
	mux.HandleFunc("GET /api/v1/campaigns/{id}", s.limited(s.handleGet))
	mux.HandleFunc("DELETE /api/v1/campaigns/{id}", s.limited(s.handleCancel))
	mux.HandleFunc("GET /api/v1/campaigns/{id}/result", s.limited(s.handleResult))
	mux.HandleFunc("GET /api/v1/stats", s.limited(s.handleStats))
}

// limited wraps h behind the MaxConcurrent semaphore. The acquire is
// non-blocking: a saturated server answers 503 + Retry-After in
// microseconds rather than parking the request goroutine — shed load
// costs almost nothing, queued load costs memory and latency for
// everyone behind it.
func (s *Server) limited(h http.HandlerFunc) http.HandlerFunc {
	if s.httpSem == nil {
		return h
	}
	return func(w http.ResponseWriter, req *http.Request) {
		select {
		case s.httpSem <- struct{}{}:
			defer func() { <-s.httpSem }()
			h(w, req)
		default:
			s.httpSheds.Add(1)
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": ErrOverloaded.Error()})
		}
	}
}

// writeJSON writes v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeErr maps a package error to its HTTP status.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadSpec):
		code = http.StatusBadRequest
	case errors.Is(err, ErrQuotaExceeded):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrDuplicate), errors.Is(err, ErrNotDone):
		code = http.StatusConflict
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrOverloaded):
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, ErrStorageDegraded):
		code = http.StatusServiceUnavailable
		// Storage degradation is expected to be transient (the
		// coordinator re-probes its disk every LeaseTTL/2); invite a retry.
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxSubmitBytes bounds a submission body. An accepted tag is journaled
// and replayed at every restart, so its size must be bounded before it
// is decoded; real specs and tags are a few hundred bytes.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var sr SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxSubmitBytes)).Decode(&sr); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	tag := dist.CampaignTag{Tenant: sr.Tenant, Priority: sr.Priority, Name: sr.Name}
	id, err := s.Submit(sr.Spec, tag)
	if err != nil {
		writeErr(w, err)
		return
	}
	// Accepted campaigns are never removed, so Get cannot miss: it reports
	// the state Submit left the campaign in (running once Start has run).
	c, _ := s.Get(id)
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: id, State: c.State})
}

func (s *Server) handleList(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, s.List(req.URL.Query().Get("tenant")))
}

func (s *Server) handleGet(w http.ResponseWriter, req *http.Request) {
	c, err := s.Get(req.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, c)
}

func (s *Server) handleCancel(w http.ResponseWriter, req *http.Request) {
	st, err := s.Cancel(req.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]State{"state": st})
}

func (s *Server) handleResult(w http.ResponseWriter, req *http.Request) {
	logs, err := s.Result(req.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, FlattenResult(logs))
}

func (s *Server) handleStats(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{
		Queue: s.Stats(),
		Dist:  s.cfg.Coordinator.StatsSnapshot(),
	})
}
