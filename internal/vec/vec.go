// Package vec provides 3-component vector math for the MD engine.
//
// Vectors are small value types; all operations return new values except
// the explicitly in-place Add/Sub/Scale pointer methods used in hot loops.
package vec

import (
	"fmt"
	"math"
)

// V is a 3-vector (x, y, z) in simulation units (Å for positions,
// Å/ps for velocities, kcal/mol/Å for forces).
type V struct{ X, Y, Z float64 }

// New returns the vector (x, y, z).
func New(x, y, z float64) V { return V{x, y, z} }

// Zero is the zero vector.
var Zero = V{}

// Add returns a + b.
func (a V) Add(b V) V { return V{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a V) Sub(b V) V { return V{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns s·a.
func (a V) Scale(s float64) V { return V{a.X * s, a.Y * s, a.Z * s} }

// Neg returns -a.
func (a V) Neg() V { return V{-a.X, -a.Y, -a.Z} }

// Dot returns a·b.
func (a V) Dot(b V) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Cross returns a×b.
func (a V) Cross(b V) V {
	return V{
		a.Y*b.Z - a.Z*b.Y,
		a.Z*b.X - a.X*b.Z,
		a.X*b.Y - a.Y*b.X,
	}
}

// Norm returns |a|.
func (a V) Norm() float64 { return math.Sqrt(a.Dot(a)) }

// Norm2 returns |a|².
func (a V) Norm2() float64 { return a.Dot(a) }

// Unit returns a/|a|. It returns the zero vector if |a| == 0.
func (a V) Unit() V {
	n := a.Norm()
	if n == 0 {
		return Zero
	}
	return a.Scale(1 / n)
}

// Dist returns |a-b|.
func Dist(a, b V) float64 { return a.Sub(b).Norm() }

// Dist2 returns |a-b|².
func Dist2(a, b V) float64 { return a.Sub(b).Norm2() }

// AddInPlace sets a += b without allocating.
func (a *V) AddInPlace(b V) { a.X += b.X; a.Y += b.Y; a.Z += b.Z }

// SubInPlace sets a -= b.
func (a *V) SubInPlace(b V) { a.X -= b.X; a.Y -= b.Y; a.Z -= b.Z }

// AddScaled sets a += s·b. This is the hot-path FMA shape used by the
// integrator and force accumulation.
func (a *V) AddScaled(s float64, b V) {
	a.X += s * b.X
	a.Y += s * b.Y
	a.Z += s * b.Z
}

// IsFinite reports whether all three components are finite numbers.
func (a V) IsFinite() bool {
	return !math.IsNaN(a.X) && !math.IsInf(a.X, 0) &&
		!math.IsNaN(a.Y) && !math.IsInf(a.Y, 0) &&
		!math.IsNaN(a.Z) && !math.IsInf(a.Z, 0)
}

// String implements fmt.Stringer.
func (a V) String() string { return fmt.Sprintf("(%.4g, %.4g, %.4g)", a.X, a.Y, a.Z) }

// Sum returns the component-wise sum of vs.
func Sum(vs []V) V {
	var s V
	for _, v := range vs {
		s.AddInPlace(v)
	}
	return s
}

// Mean returns the arithmetic mean of vs, or the zero vector for empty input.
func Mean(vs []V) V {
	if len(vs) == 0 {
		return Zero
	}
	return Sum(vs).Scale(1 / float64(len(vs)))
}
