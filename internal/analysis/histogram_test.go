package analysis

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	if len(h.Counts) != 10 || h.BinWidth() != 1 {
		t.Fatalf("bins=%d width=%v", len(h.Counts), h.BinWidth())
	}
	h.Add(0.5)
	h.Add(9.999)
	h.Add(-1)  // below Lo: dropped
	h.Add(10)  // at Hi (exclusive): dropped
	h.Add(5.0) // bin 5
	// Non-finite samples are dropped too. NaN compares false against
	// both ends of the range, so a check written as x < Lo || x >= Hi
	// would index Counts[int(NaN)].
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		h.Add(x)
	}
	if h.Counts[0] != 1 || h.Counts[9] != 1 || h.Counts[5] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if h.Total() != 3 {
		t.Fatalf("total = %v", h.Total())
	}
}

func TestHistogramBinCenters(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	want := []float64{1, 3, 5, 7, 9}
	for i, w := range want {
		if got := h.BinCenter(i); math.Abs(got-w) > 1e-12 {
			t.Fatalf("center %d = %v, want %v", i, got, w)
		}
	}
}

func TestHistogramBinIndexProperty(t *testing.T) {
	h := NewHistogram(-5, 5, 37)
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		i, ok := h.BinIndex(x)
		if x < -5 || x >= 5 {
			return !ok
		}
		if !ok || i < 0 || i >= 37 {
			return false
		}
		// x must lie inside bin i's interval.
		lo := -5 + float64(i)*h.BinWidth()
		return x >= lo-1e-9 && x < lo+h.BinWidth()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramWeightedMean(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.AddWeighted(2.5, 1, 10)
	h.AddWeighted(2.7, 3, 20)
	m, ok := h.MeanIn(2)
	if !ok {
		t.Fatal("bin 2 should be non-empty")
	}
	if want := (10.0 + 3*20) / 4; math.Abs(m-want) > 1e-12 {
		t.Fatalf("weighted mean = %v, want %v", m, want)
	}
	if _, ok := h.MeanIn(0); ok {
		t.Fatal("empty bin should report !ok")
	}
}

func TestHistogramPanicsOnBadSpec(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHistogram(0, 1, 0) },
		func() { NewHistogram(1, 1, 4) },
		func() { NewHistogram(2, 1, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad histogram spec did not panic")
				}
			}()
			fn()
		}()
	}
}
