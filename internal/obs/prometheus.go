package obs

// Prometheus text exposition format (version 0.0.4) rendering. Rendered
// at scrape time from the collectors' output, families sorted by name so
// the output is deterministic and diffable in tests.

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeLabel escapes a label value: backslash, double-quote, newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {a="x",b="y"} (empty string for no labels). It is
// also the series' identity within its family.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus runs every collector and renders their output in the
// Prometheus text exposition format. An invalid exposition — a family
// emitted with two types, or one series emitted twice — is an error,
// and then nothing is written.
func (r *Registry) WritePrometheus(w io.Writer) error {
	fams, err := r.gather()
	if err != nil {
		return err
	}
	var b strings.Builder
	for _, f := range fams {
		if err := writeSnapFamily(&b, f); err != nil {
			return err
		}
	}
	_, err = io.WriteString(w, b.String())
	return err
}

// writeSnapFamily renders one family, samples in emission order
// (collectors iterate sorted maps themselves when order matters; tests
// compare parsed values, not line order).
func writeSnapFamily(b *strings.Builder, f *snapFamily) error {
	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	seen := make(map[string]bool, len(f.samples))
	for _, s := range f.samples {
		ls := labelString(s.labels)
		if seen[ls] {
			return fmt.Errorf("obs: series %s%s emitted twice", f.name, ls)
		}
		seen[ls] = true
		if s.hist != nil {
			writeHistogram(b, f.name, ls, s.hist)
		} else {
			fmt.Fprintf(b, "%s%s %s\n", f.name, ls, formatValue(s.value))
		}
	}
	return nil
}

// writeHistogram renders _bucket/_sum/_count lines for one histogram
// series whose rendered labels are ls.
func writeHistogram(b *strings.Builder, name, ls string, h *Histogram) {
	bounds, cum := h.Buckets()
	le := "{le="
	if ls != "" {
		le = ls[:len(ls)-1] + ",le="
	}
	for i, c := range cum {
		bound := "+Inf"
		if i < len(bounds) {
			bound = formatValue(bounds[i])
		}
		fmt.Fprintf(b, "%s_bucket%s%q} %d\n", name, le, bound, c)
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, ls, formatValue(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, ls, h.Count())
}
