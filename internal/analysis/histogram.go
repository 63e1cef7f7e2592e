package analysis

import "fmt"

// Histogram accumulates weighted samples into uniform bins over [Lo, Hi),
// each carrying a weighted sum of an auxiliary value — the Fig. 3 strain
// profile bins bond strain by the bond's height along the pore axis.
type Histogram struct {
	Lo, Hi float64
	Counts []float64
	Sum    []float64 // per-bin weighted sum of an auxiliary value
}

// NewHistogram returns a histogram with nbins uniform bins spanning
// [lo, hi). It panics if nbins <= 0 or hi <= lo, which indicates a
// programming error in the caller.
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if nbins <= 0 || hi <= lo {
		panic(fmt.Sprintf("analysis: bad histogram spec [%g,%g) nbins=%d", lo, hi, nbins))
	}
	return &Histogram{
		Lo:     lo,
		Hi:     hi,
		Counts: make([]float64, nbins),
		Sum:    make([]float64, nbins),
	}
}

// BinWidth returns the uniform bin width.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.Counts)) }

// BinIndex returns the bin index for x and whether x lies inside the
// range; NaN lies outside every range.
func (h *Histogram) BinIndex(x float64) (int, bool) {
	if !(x >= h.Lo && x < h.Hi) {
		return 0, false
	}
	i := int((x - h.Lo) / h.BinWidth())
	if i >= len(h.Counts) { // guard against FP edge at Hi
		i = len(h.Counts) - 1
	}
	return i, true
}

// BinCenter returns the center coordinate of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}

// Add records sample x with unit weight.
func (h *Histogram) Add(x float64) { h.AddWeighted(x, 1, 0) }

// AddWeighted records sample x with weight w and auxiliary value v
// (accumulated into Sum, weighted). A sample outside [Lo, Hi), or NaN,
// is dropped.
func (h *Histogram) AddWeighted(x, w, v float64) {
	i, ok := h.BinIndex(x)
	if !ok {
		return
	}
	h.Counts[i] += w
	h.Sum[i] += w * v
}

// Total returns the in-range weight.
func (h *Histogram) Total() float64 {
	t := 0.0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// MeanIn returns the weighted mean of the auxiliary value in bin i, and
// false if the bin is empty.
func (h *Histogram) MeanIn(i int) (float64, bool) {
	if h.Counts[i] == 0 {
		return 0, false
	}
	return h.Sum[i] / h.Counts[i], true
}
