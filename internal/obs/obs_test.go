package obs

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRegistryConcurrency hammers one histogram and a collector's
// counters from many goroutines while scraping and registering; run
// under -race this is the data race check, and the final counts check
// no lost updates.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram([]float64{1, 10, 100})
	var sites [3]atomic.Int64
	r.RegisterCollector(func(e *Emitter) {
		e.Histogram("conc_hist", "", h)
		for i := range sites {
			e.Counter("conc_vec_total", "", float64(sites[i].Load()), Label{"site", string(rune('a' + i))})
		}
	})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i % 200))
				sites[w%3].Add(1)
				if i%100 == 0 {
					r.RegisterCollector(func(e *Emitter) {})
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Errorf("WritePrometheus: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range []string{"a", "b", "c"} {
		total += sampleValue(t, sb.String(), `conc_vec_total{site="`+s+`"}`)
	}
	if total != workers*per {
		t.Fatalf("vec total = %v, want %d", total, workers*per)
	}
}

// sampleValue returns the value of the sample line for series in out.
func sampleValue(t *testing.T, out, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s missing:\n%s", series, out)
	return 0
}

// TestHistogramBucketBoundaries pins the le semantics: a value equal to
// an upper bound lands in that bucket (le is inclusive), cumulative
// counts are monotonic, and +Inf equals the total count.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 1.0001, 5, 7, 10, 10.5, 1e9} {
		h.Observe(v)
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 3 || len(cum) != 4 {
		t.Fatalf("buckets: %v / %v", bounds, cum)
	}
	// le=1: {0.5, 1}; le=5: +{1.0001, 5}; le=10: +{7, 10}; +Inf: +{10.5, 1e9}
	want := []int64{2, 4, 6, 8}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (all: %v)", i, cum[i], w, cum)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	wantSum := 0.5 + 1 + 1.0001 + 5 + 7 + 10 + 10.5 + 1e9
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

// TestHistogramRendering checks the _bucket/_sum/_count exposition of an
// emitted histogram, unlabeled and labeled (le joins the series labels).
func TestHistogramRendering(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram([]float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	layer := NewHistogram([]float64{0.1, 1})
	layer.Observe(0.5)
	r.RegisterCollector(func(e *Emitter) {
		e.Histogram("lat_seconds", "step latency", h)
		e.Histogram("layer_seconds", "", layer, Label{"layer", "md"})
	})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 2.55",
		"lat_seconds_count 3",
		`layer_seconds_bucket{layer="md",le="0.1"} 0`,
		`layer_seconds_bucket{layer="md",le="+Inf"} 1`,
		`layer_seconds_sum{layer="md"} 0.5`,
		`layer_seconds_count{layer="md"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// One histogram series emitted twice is refused like any other.
	r.RegisterCollector(func(e *Emitter) { e.Histogram("lat_seconds", "step latency", h) })
	if err := r.WritePrometheus(new(strings.Builder)); err == nil {
		t.Error("duplicate histogram series rendered")
	}
}

// TestPrometheusEscaping pins the text-format escaping rules: label
// values escape backslash, double-quote and newline; HELP escapes
// backslash and newline.
func TestPrometheusEscaping(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector(func(e *Emitter) {
		e.Gauge("esc_gauge", "help with \\ and\nnewline", 1, Label{"path", "a\\b\"c\nd"})
	})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if want := `# HELP esc_gauge help with \\ and\nnewline`; !strings.Contains(out, want) {
		t.Errorf("HELP not escaped, missing %q:\n%s", want, out)
	}
	if want := `esc_gauge{path="a\\b\"c\nd"} 1`; !strings.Contains(out, want) {
		t.Errorf("label value not escaped, missing %q:\n%s", want, out)
	}
}

// TestCollector checks scrape-time collectors render and run fresh at
// every scrape.
func TestCollector(t *testing.T) {
	r := NewRegistry()
	n := 0.0
	r.RegisterCollector(func(e *Emitter) {
		n++
		e.Counter("coll_total", "from collector", n, Label{"site", "x"})
		e.Gauge("coll_gauge", "", n*2)
	})
	var sb strings.Builder
	r.WritePrometheus(&sb)
	sb.Reset()
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE coll_total counter",
		`coll_total{site="x"} 2`,
		"coll_gauge 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestMultiLabelEmission checks two collectors may share a family, and
// that multi-label series whose values concatenate alike stay distinct.
func TestMultiLabelEmission(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector(func(e *Emitter) { e.Counter("multi_total", "", 1, Label{"a", "x"}, Label{"b", "yz"}) })
	r.RegisterCollector(func(e *Emitter) { e.Counter("multi_total", "", 2, Label{"a", "xy"}, Label{"b", "z"}) })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, "# TYPE multi_total counter") != 1 ||
		!strings.Contains(out, `multi_total{a="x",b="yz"} 1`) ||
		!strings.Contains(out, `multi_total{a="xy",b="z"} 2`) {
		t.Errorf("multi-label rendering wrong:\n%s", out)
	}
}

// TestInvalidExpositionRefused: a family emitted with two types, or one
// series emitted twice, is not valid exposition. WritePrometheus returns
// an error and writes nothing, and /metrics answers 500.
func TestInvalidExpositionRefused(t *testing.T) {
	for name, c := range map[string]Collector{
		"type clash": func(e *Emitter) {
			e.Counter("clash", "", 1)
			e.Gauge("clash", "", 2, Label{"k", "v"})
		},
		"duplicate series": func(e *Emitter) {
			e.Gauge("dup", "", 1, Label{"k", "v"})
			e.Gauge("dup", "", 2, Label{"k", "v"})
		},
	} {
		r := NewRegistry()
		r.RegisterCollector(func(e *Emitter) { e.Counter("fine_total", "", 1) })
		r.RegisterCollector(c)
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err == nil || sb.Len() != 0 {
			t.Errorf("%s: err=%v, wrote %q", name, err, sb.String())
		}
		rec := httptest.NewRecorder()
		NewMux(r, nil, nil, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != http.StatusInternalServerError || strings.Contains(rec.Body.String(), "fine_total") {
			t.Errorf("%s: /metrics = %d %q, want 500 without samples", name, rec.Code, rec.Body.String())
		}
	}
}

// TestInvalidNamePanics pins that invalid metric and label names, and
// descending histogram bounds, are loud.
func TestInvalidNamePanics(t *testing.T) {
	for _, c := range []Collector{
		func(e *Emitter) { e.Counter("bad-name", "", 1) },
		func(e *Emitter) { e.Gauge("ok_gauge", "", 1, Label{"bad-label", "x"}) },
		func(e *Emitter) { e.Counter("ok_total", "", 1, Label{"", "x"}) },
	} {
		r := NewRegistry()
		r.RegisterCollector(c)
		mustPanic(t, func() { r.WritePrometheus(new(strings.Builder)) })
	}
	mustPanic(t, func() { NewHistogram([]float64{5, 1}) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
