// Package units defines the internal unit system used throughout SPICE and
// conversions to the units the paper reports in.
//
// Internal (simulation) units:
//
//	length  Å (angstrom)
//	time    ps (picosecond)
//	mass    amu (atomic mass unit, g/mol)
//	energy  kcal/mol
//
// These are the AKMA-style units used by CHARMM and NAMD, which SPICE wraps.
// In this system forces are kcal/mol/Å and velocities Å/ps. The paper quotes
// spring constants in pN/Å and pulling velocities in Å/ns; conversion
// helpers are provided so public APIs can speak the paper's language.
package units

import "math"

// Fundamental constants in internal units.
const (
	// Boltzmann is the Boltzmann constant in kcal/(mol·K).
	Boltzmann = 0.0019872041

	// RoomTemperature is the simulation temperature used throughout the
	// paper's experiments, in kelvin.
	RoomTemperature = 300.0

	// KTRoom is kT at RoomTemperature in kcal/mol.
	KTRoom = Boltzmann * RoomTemperature

	// TimeFactor is the "natural" AKMA time unit expressed in ps:
	// sqrt(amu·Å²/(kcal/mol)) = 48.8882 fs. The integrator in this
	// repository works directly in ps via AccelUnit; the factor is kept
	// for reference and tests.
	TimeFactor = 0.0488882

	// AccelUnit converts force/mass from (kcal/mol/Å)/amu into Å/ps².
	// 1 kcal/mol = 4184 J/mol; 1 amu = 1e-3 kg/mol; 1 Å = 1e-10 m, so
	// a = F/m · 4184/(1e-3·1e-10) m/s² = F/m · 4.184e16 m/s²
	//   = F/m · 418.4 Å/ps².
	AccelUnit = 418.4
)

// Force conversions. 1 kcal/mol/Å = 69.4786 pN.
const (
	// PNPerKcalMolA is piconewtons per (kcal/mol/Å).
	PNPerKcalMolA = 69.478578
)

// KcalMolAFromPN converts a force (or a spring constant per Å) expressed in
// pN (pN/Å) to kcal/mol/Å (kcal/mol/Å²).
func KcalMolAFromPN(pn float64) float64 { return pn / PNPerKcalMolA }

// PNFromKcalMolA converts a force in kcal/mol/Å to pN.
func PNFromKcalMolA(f float64) float64 { return f * PNPerKcalMolA }

// SpringFromPaper converts a spring constant quoted in pN/Å (as in the
// paper's Fig. 4) to internal kcal/mol/Å².
func SpringFromPaper(pnPerA float64) float64 { return pnPerA / PNPerKcalMolA }

// SpringToPaper converts an internal spring constant (kcal/mol/Å²) to pN/Å.
func SpringToPaper(k float64) float64 { return k * PNPerKcalMolA }

// Velocity conversions. The paper quotes pulling velocities in Å/ns;
// internal velocities are Å/ps.
const apsPerAns = 1e-3

// VelocityFromPaper converts Å/ns to Å/ps.
func VelocityFromPaper(aPerNs float64) float64 { return aPerNs * apsPerAns }

// VelocityToPaper converts Å/ps to Å/ns.
func VelocityToPaper(aPerPs float64) float64 { return aPerPs / apsPerAns }

// KT returns kT in kcal/mol at temperature t (kelvin).
func KT(t float64) float64 { return Boltzmann * t }

// Beta returns 1/kT in mol/kcal at temperature t (kelvin).
func Beta(t float64) float64 { return 1 / KT(t) }

// ThermalVelocity returns the standard deviation of one Cartesian velocity
// component, in Å/ps, for a particle of mass m (amu) at temperature t (K):
// sqrt(kT/m) with the AKMA acceleration conversion folded in.
func ThermalVelocity(t, m float64) float64 {
	return math.Sqrt(Boltzmann * t / m * AccelUnit)
}
