package units

import (
	"math"
	"testing"
	"testing/quick"
)

func close(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestKTRoom(t *testing.T) {
	// kT at 300 K should be ~0.5962 kcal/mol.
	if !close(KTRoom, 0.59616, 1e-3) {
		t.Fatalf("KTRoom = %v, want ~0.5962", KTRoom)
	}
}

func TestBetaInverse(t *testing.T) {
	for _, temp := range []float64{1, 77, 300, 310, 1000} {
		if got := Beta(temp) * KT(temp); !close(got, 1, 1e-12) {
			t.Errorf("Beta(%v)*KT(%v) = %v, want 1", temp, temp, got)
		}
	}
}

func TestForceConversionRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		return close(PNFromKcalMolA(KcalMolAFromPN(x)), x, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpringConversionPaperValues(t *testing.T) {
	// The paper's κ = 100 pN/Å is ~1.439 kcal/mol/Å².
	k := SpringFromPaper(100)
	if !close(k, 1.4393, 1e-3) {
		t.Fatalf("SpringFromPaper(100) = %v, want ~1.439", k)
	}
	if !close(SpringToPaper(k), 100, 1e-12) {
		t.Fatalf("round trip failed: %v", SpringToPaper(k))
	}
}

func TestVelocityConversion(t *testing.T) {
	// v = 12.5 Å/ns = 0.0125 Å/ps
	if got := VelocityFromPaper(12.5); !close(got, 0.0125, 1e-12) {
		t.Fatalf("VelocityFromPaper(12.5) = %v", got)
	}
	if got := VelocityToPaper(0.0125); !close(got, 12.5, 1e-12) {
		t.Fatalf("VelocityToPaper(0.0125) = %v", got)
	}
}

func TestAccelUnitConsistentWithTimeFactor(t *testing.T) {
	// The natural AKMA time unit squared must equal 1/AccelUnit (in ps²).
	if got := TimeFactor * TimeFactor * AccelUnit; !close(got, 1, 1e-3) {
		t.Fatalf("TimeFactor²·AccelUnit = %v, want 1", got)
	}
}

func TestThermalVelocityCarbon(t *testing.T) {
	// sqrt(kB·300/m_C) ≈ 455.9 m/s = 4.559 Å/ps for carbon (12 amu).
	v := ThermalVelocity(300, 12.011)
	if !close(v, 4.557, 5e-3) {
		t.Fatalf("ThermalVelocity(300, 12) = %v Å/ps, want ~4.56", v)
	}
}
