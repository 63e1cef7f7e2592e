package backoff

import (
	"testing"
	"time"
)

func TestExpGrowthAndCap(t *testing.T) {
	p := Policy{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond}
	want := []time.Duration{
		2 * time.Millisecond,  // attempt 1
		4 * time.Millisecond,  // attempt 2
		8 * time.Millisecond,  // attempt 3
		16 * time.Millisecond, // attempt 4
		32 * time.Millisecond, // attempt 5
		50 * time.Millisecond, // attempt 6 (capped)
		50 * time.Millisecond, // attempt 7 (stays capped)
	}
	for i, w := range want {
		if got := p.Exp(i + 1); got != w {
			t.Fatalf("Exp(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := p.Exp(0); got != p.Base {
		t.Fatalf("Exp(0) = %v, want Base %v", got, p.Base)
	}
	// Exp must never overflow into negative delays for huge attempts.
	if got := p.Exp(200); got != p.Max {
		t.Fatalf("Exp(200) = %v, want Max %v", got, p.Max)
	}
}

func TestKeyedDeterministicAndBounded(t *testing.T) {
	p := Policy{Base: 50 * time.Millisecond, Max: 2 * time.Second}
	for attempt := 1; attempt <= 8; attempt++ {
		d1 := p.Keyed("job-a", attempt)
		d2 := p.Keyed("job-a", attempt)
		if d1 != d2 {
			t.Fatalf("Keyed not deterministic: %v vs %v", d1, d2)
		}
		exp := p.Exp(attempt)
		if d1 < exp/2 || d1 >= exp {
			t.Fatalf("Keyed(%d) = %v outside [%v, %v)", attempt, d1, exp/2, exp)
		}
	}
	// Distinct keys at the same attempt should mostly disagree.
	distinct := map[time.Duration]bool{}
	for _, key := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		distinct[p.Keyed(key, 3)] = true
	}
	if len(distinct) < 4 {
		t.Fatalf("keyed jitter too clumped: %d distinct delays of 8 keys", len(distinct))
	}
}

func TestFracRange(t *testing.T) {
	for _, key := range []string{"", "x", "worker/0#17", "a-very-long-key"} {
		f := Frac(key)
		if f < 0.5 || f >= 1.0 {
			t.Fatalf("Frac(%q) = %v outside [0.5, 1)", key, f)
		}
		if f != Frac(key) {
			t.Fatalf("Frac(%q) not deterministic", key)
		}
	}
}

func TestDecorrelatedBoundsAndSpread(t *testing.T) {
	p := Policy{Base: 25 * time.Millisecond, Max: time.Second}
	d := p.Decorrelated(Seed("w/0"))
	prev := time.Duration(0)
	for i := 0; i < 50; i++ {
		n := d.Next()
		if n < p.Base || n > p.Max {
			t.Fatalf("Next() = %v outside [%v, %v]", n, p.Base, p.Max)
		}
		_ = prev
		prev = n
	}
	// Same seed replays the same sequence.
	a, b := p.Decorrelated(7), p.Decorrelated(7)
	for i := 0; i < 10; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("same seed diverged at step %d: %v vs %v", i, x, y)
		}
	}
	// Distinct seeds de-synchronize: first delays across a fleet spread out.
	first := map[time.Duration]bool{}
	for i := 0; i < 32; i++ {
		w := p.Decorrelated(Seed("worker/" + string(rune('a'+i))))
		first[w.Next()] = true
	}
	if len(first) < 8 {
		t.Fatalf("decorrelated first delays too clumped: %d distinct of 32", len(first))
	}
	// Reset restarts from Base-range delays.
	d.Reset()
	if n := d.Next(); n < p.Base || n >= 3*p.Base {
		t.Fatalf("post-Reset Next() = %v outside [%v, %v)", n, p.Base, 3*p.Base)
	}
}
