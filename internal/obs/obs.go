// Package obs is the live-observability layer: a dependency-free
// metrics registry of scrape-time collectors (plus the fixed-bucket
// histograms they may emit) rendered in the Prometheus text exposition
// format, a structured JSON-lines event log with campaign/job/site span
// scoping, and an HTTP debug server exposing /metrics, /healthz and
// /debug/pprof/*.
//
// The paper's interactive and batch phases both hinge on watching the
// grid: RealityGrid steering exposes live simulation state, and the §V
// federation pathologies (stragglers, co-scheduling failures, lightpath
// QoS) were diagnosed by monitoring, not post-mortems. This package is
// that monitoring surface for the Go reproduction — everything the dist
// runtime knows (breaker states, site EWMAs, speculation races) becomes
// scrapeable while the campaign runs, instead of only printable after
// it.
//
// Design rules:
//
//   - Standard library only, so every layer down to internal/md can
//     depend on it without dragging model code upward.
//   - A Registry is nothing but its collectors: every sample is emitted
//     at scrape time from the same state the owner's snapshot, console
//     tables and tests read, so /metrics can never drift from them.
//   - Histograms are owned by their users and are lock-free on the
//     update path (atomics only, zero allocations), so the MD force loop
//     can be sampled without perturbing the benchmarks the regression
//     harness gates on.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// metricType is the Prometheus family type.
type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds in ascending order; an implicit +Inf bucket catches the rest.
// Observe is atomics-only and allocation-free, so it is safe to call
// from sampled hot paths like the MD step loop. Its owner emits it from
// a collector (Emitter.Histogram).
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1, cumulative at render time
	sumBits atomic.Uint64  // float64 bits of the sum
	count   atomic.Int64
}

// NewHistogram builds a histogram. bounds must be ascending.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Buckets returns the upper bounds and the cumulative count at each
// (the last entry is the +Inf bucket, equal to Count).
func (h *Histogram) Buckets() (bounds []float64, cumulative []int64) {
	bounds = append([]float64(nil), h.bounds...)
	cumulative = make([]int64, len(h.counts))
	var acc int64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	return bounds, cumulative
}

// ExpBuckets returns n ascending histogram bounds starting at start and
// multiplying by factor: the usual shape for latency histograms, where
// the interesting structure spans orders of magnitude. start must be
// positive and factor > 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: ExpBuckets(%g, %g, %d): need start > 0, factor > 1, n >= 1", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Label is one name="value" pair on a metric sample.
type Label struct{ Name, Value string }

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

func validName(s string) bool { return nameRE.MatchString(s) }

// Registry is the list of collectors one /metrics endpoint renders. All
// methods are safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Collector emits point-in-time samples at scrape. Collectors run with
// no registry lock held, so they may call into arbitrary snapshot code
// (e.g. the dist coordinator's mutex).
type Collector func(e *Emitter)

// RegisterCollector adds a scrape-time collector.
func (r *Registry) RegisterCollector(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// sample is one collected series: a value, or a histogram.
type sample struct {
	labels []Label
	value  float64
	hist   *Histogram
}

// snapFamily is one named metric family as emitted during one scrape.
type snapFamily struct {
	name    string
	help    string
	typ     metricType
	samples []sample
}

// Emitter accumulates collector output during one scrape. Invalid metric
// or label names panic (a programming error); a family emitted with two
// types is recorded and fails the scrape.
type Emitter struct {
	fams map[string]*snapFamily
	err  error
}

func (e *Emitter) emit(name, help string, typ metricType, s sample) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range s.labels {
		if !validName(l.Name) {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l.Name, name))
		}
	}
	f := e.fams[name]
	if f == nil {
		f = &snapFamily{name: name, help: help, typ: typ}
		e.fams[name] = f
	}
	if f.typ != typ && e.err == nil {
		e.err = fmt.Errorf("obs: metric %s emitted as both %s and %s", name, f.typ, typ)
	}
	f.samples = append(f.samples, s)
}

// Counter emits one counter sample.
func (e *Emitter) Counter(name, help string, v float64, labels ...Label) {
	e.emit(name, help, typeCounter, sample{labels: labels, value: v})
}

// Gauge emits one gauge sample.
func (e *Emitter) Gauge(name, help string, v float64, labels ...Label) {
	e.emit(name, help, typeGauge, sample{labels: labels, value: v})
}

// Histogram emits h as one histogram series.
func (e *Emitter) Histogram(name, help string, h *Histogram, labels ...Label) {
	e.emit(name, help, typeHistogram, sample{labels: labels, hist: h})
}

// gather runs the collectors and returns their families sorted by name.
func (r *Registry) gather() ([]*snapFamily, error) {
	r.mu.Lock()
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()

	em := &Emitter{fams: make(map[string]*snapFamily)}
	for _, c := range collectors {
		c(em)
	}
	fams := make([]*snapFamily, 0, len(em.fams))
	for _, f := range em.fams {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams, em.err
}
