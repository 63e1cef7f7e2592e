package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws from different seeds", same)
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	s := New(0)
	// Must not be stuck at zero.
	var or uint64
	for i := 0; i < 10; i++ {
		or |= s.Uint64()
	}
	if or == 0 {
		t.Fatal("zero-seeded generator emits only zeros")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	counts := make([]int, 7)
	const n = 140000
	for i := 0; i < n; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-1.0/7) > 0.01 {
			t.Fatalf("Intn bias: bucket %d has fraction %v", i, frac)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	s := New(5)
	p := s.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("bad permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(9)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := s.NormFloat64()
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v", variance)
	}
}

func TestGammaMean(t *testing.T) {
	s := New(17)
	for _, k := range []float64{0.5, 1, 2.5, 8} {
		const n = 100000
		sum := 0.0
		for i := 0; i < n; i++ {
			x := s.Gamma(k)
			if x < 0 {
				t.Fatalf("negative gamma deviate")
			}
			sum += x
		}
		mean := sum / n
		if math.Abs(mean-k)/k > 0.05 {
			t.Fatalf("Gamma(%v) mean = %v", k, mean)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(23)
	child := parent.Split()
	// Parent and child streams must differ from each other.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("parent/child emitted %d identical values", same)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.NormFloat64()
	}
	_ = sink
}

func TestSnapshotRestoreBitExact(t *testing.T) {
	s := New(42)
	// Leave a spare Gaussian cached so the snapshot covers it.
	s.NormFloat64()
	snap := s.Snapshot()
	var want []float64
	for i := 0; i < 64; i++ {
		want = append(want, s.NormFloat64(), s.Float64())
	}
	r := New(7) // different state, fully overwritten by restore
	if err := r.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		var got float64
		if i%2 == 0 {
			got = r.NormFloat64()
		} else {
			got = r.Float64()
		}
		if got != w {
			t.Fatalf("draw %d: restored stream diverged: %v != %v", i, got, w)
		}
	}
	// Snapshot must be a copy, not an alias.
	snap2 := s.Snapshot()
	snap2[0] = 0xdead
	if s.Snapshot()[0] == 0xdead {
		t.Fatal("snapshot aliases generator state")
	}
}

func TestRestoreSnapshotRejectsBadInput(t *testing.T) {
	s := New(1)
	if err := s.RestoreSnapshot([]uint64{1, 2, 3}); err == nil {
		t.Fatal("short snapshot accepted")
	}
	if err := s.RestoreSnapshot(make([]uint64, SnapshotLen)); err == nil {
		t.Fatal("all-zero stream state accepted")
	}
}
