package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecApprox(a, b V, tol float64) bool {
	return approx(a.X, b.X, tol) && approx(a.Y, b.Y, tol) && approx(a.Z, b.Z, tol)
}

// genOK filters out pathological float inputs from quick.Check.
func genOK(vs ...V) bool {
	for _, v := range vs {
		if !v.IsFinite() || v.Norm() > 1e100 {
			return false
		}
	}
	return true
}

func TestAddSubInverse(t *testing.T) {
	f := func(a, b V) bool {
		if !genOK(a, b) {
			return true
		}
		return vecApprox(a.Add(b).Sub(b), a, 1e-6*math.Max(1, a.Norm()+b.Norm()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDotCommutative(t *testing.T) {
	f := func(a, b V) bool {
		if !genOK(a, b) {
			return true
		}
		return a.Dot(b) == b.Dot(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCrossOrthogonal(t *testing.T) {
	f := func(a, b V) bool {
		if !genOK(a, b) || a.Norm() > 1e15 || b.Norm() > 1e15 {
			return true
		}
		c := a.Cross(b)
		scale := a.Norm() * b.Norm()
		if scale == 0 {
			return c == Zero
		}
		return math.Abs(c.Dot(a))/scale < 1e-9 && math.Abs(c.Dot(b))/scale < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCrossAnticommutative(t *testing.T) {
	a, b := New(1, 2, 3), New(-4, 5, 0.5)
	if got, want := a.Cross(b), b.Cross(a).Neg(); !vecApprox(got, want, 1e-12) {
		t.Fatalf("a×b = %v, -(b×a) = %v", got, want)
	}
}

func TestUnitNorm(t *testing.T) {
	f := func(a V) bool {
		if !genOK(a) {
			return true
		}
		u := a.Unit()
		if a.Norm() == 0 {
			return u == Zero
		}
		return approx(u.Norm(), 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerpEndpoints(t *testing.T) {
	a, b := New(1, -1, 2), New(3, 4, -5)
	if !vecApprox(Lerp(a, b, 0), a, 1e-12) || !vecApprox(Lerp(a, b, 1), b, 1e-12) {
		t.Fatal("Lerp endpoints wrong")
	}
	mid := Lerp(a, b, 0.5)
	if !vecApprox(mid, New(2, 1.5, -1.5), 1e-12) {
		t.Fatalf("midpoint = %v", mid)
	}
}

func TestInPlaceOpsMatchValueOps(t *testing.T) {
	a, b := New(1, 2, 3), New(0.5, -0.25, 8)
	c := a
	c.AddInPlace(b)
	if c != a.Add(b) {
		t.Fatal("AddInPlace mismatch")
	}
	c = a
	c.SubInPlace(b)
	if c != a.Sub(b) {
		t.Fatal("SubInPlace mismatch")
	}
	c = a
	c.AddScaled(2, b)
	if c != a.Add(b.Scale(2)) {
		t.Fatal("AddScaled mismatch")
	}
}

func TestSumMean(t *testing.T) {
	vs := []V{New(1, 0, 0), New(0, 2, 0), New(0, 0, 3), New(1, 2, 3)}
	if got := Sum(vs); got != New(2, 4, 6) {
		t.Fatalf("Sum = %v", got)
	}
	if got := Mean(vs); got != New(0.5, 1, 1.5) {
		t.Fatalf("Mean = %v", got)
	}
	if Mean(nil) != Zero {
		t.Fatal("Mean(nil) should be zero")
	}
}

func TestMinImage(t *testing.T) {
	box := New(10, 10, 0) // periodic in x,y only
	d := MinImage(New(9, -9, 42), box)
	if !vecApprox(d, New(-1, 1, 42), 1e-12) {
		t.Fatalf("MinImage = %v", d)
	}
	// Property: result components lie within [-L/2, L/2] for periodic dims.
	f := func(a V) bool {
		if !genOK(a) || a.Norm() > 1e9 {
			return true
		}
		d := MinImage(a, box)
		return d.X >= -5-1e-9 && d.X <= 5+1e-9 && d.Y >= -5-1e-9 && d.Y <= 5+1e-9 && d.Z == a.Z
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWrap(t *testing.T) {
	box := New(10, 10, 10)
	f := func(a V) bool {
		if !genOK(a) || a.Norm() > 1e9 {
			return true
		}
		p := Wrap(a, box)
		return p.X >= 0 && p.X < 10+1e-9 && p.Y >= 0 && p.Y < 10+1e-9 && p.Z >= 0 && p.Z < 10+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Non-periodic passthrough.
	if got := Wrap(New(-3, 42, 7), New(0, 0, 10)); got.X != -3 || got.Y != 42 {
		t.Fatalf("non-periodic Wrap = %v", got)
	}
}

func TestDist(t *testing.T) {
	if got := Dist(New(0, 0, 0), New(3, 4, 0)); !approx(got, 5, 1e-12) {
		t.Fatalf("Dist = %v", got)
	}
	if got := Dist2(New(0, 0, 0), New(3, 4, 0)); !approx(got, 25, 1e-12) {
		t.Fatalf("Dist2 = %v", got)
	}
}

func TestIsFinite(t *testing.T) {
	if !New(1, 2, 3).IsFinite() {
		t.Fatal("finite vector reported non-finite")
	}
	bad := []V{{math.NaN(), 0, 0}, {0, math.Inf(1), 0}, {0, 0, math.Inf(-1)}}
	for _, v := range bad {
		if v.IsFinite() {
			t.Fatalf("%v reported finite", v)
		}
	}
}
