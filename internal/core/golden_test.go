package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"sort"
	"testing"

	"spice/internal/campaign"
	"spice/internal/md"
	"spice/internal/trace"
	"spice/internal/vec"
)

// The golden digests pin trajectories across commits: a change to the
// step kernel (a skipped term, a hoisted constant, a fused loop) must
// leave every float of every trajectory unchanged, so these digests only
// move when the physics is changed on purpose. They were taken before
// the kernel's exact skips and hoists went in.
const (
	goldenDefaultSystem = "4e9f6379220210dcf14bf2e12eed1e0debef9e563dde8ce0a3a1bd056ad5ab72"
	goldenBench24       = "62883bba8583fe01e357f0fd8ae7494ea0dc1f92a8e04077405b4513212d0d79"
	goldenFriction12    = "22b497adf7d937362ed6282f48edab72de06f4a88b71ef0372582436fc97585a"
	goldenWalled20      = "6b0ac60d4757a64d87cfd3e7b1858b7928112f84179dd872649d2b5ea33cdaf7"
)

// goldenSpec is a 6-pull sweep short enough for every test run: two
// spring constants, three velocities, one replica each.
var goldenSpec = campaign.Spec{
	Kappas: []float64{100, 1000}, Velocities: []float64{50, 100, 200},
	Replicas: 1, EqualSamples: true, Distance: 5, Seed: 4401,
}

// sweepDigest runs goldenSpec on sc through LocalRunner and returns the
// SHA-256 of its work logs, JSON-encoded in task order.
func sweepDigest(t *testing.T, sc SystemConfig) string {
	t.Helper()
	lr := &campaign.LocalRunner{Build: func(_ campaign.Combo, seed uint64) (*md.Engine, []int, error) {
		return sc.Build(seed)
	}}
	logs, err := lr.Run(goldenSpec)
	if err != nil {
		t.Fatal(err)
	}
	var ordered []*trace.WorkLog
	for _, c := range goldenSpec.Combos() {
		ordered = append(ordered, logs[c]...)
	}
	b, err := json.Marshal(ordered)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenTrajectories pins bit-exact trajectories of the systems the
// repo runs: the default sweep system, the benchmark's 24-bead system, a
// 12-bead system with the position-dependent pore friction (the
// integrator's GammaFor path), and 2000 steps of the walled 20-bead
// system (fixed wall atoms, explicit wall-bead pairs: positions,
// velocities and the per-term energies). The far beads of
// the longer strands sit tens of Å from every binding site and the pore,
// where the kernel's exact skips apply.
func TestGoldenTrajectories(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   SystemConfig
		want string
	}{
		{"DefaultSystem", DefaultSystem(), goldenDefaultSystem},
		// The benchmark's systemUnderTest, copied rather than imported.
		{"bench24", SystemConfig{Beads: 24, StartZ: 5, EquilSteps: 1000, DT: 0.01, Temp: 300, PoreFriction: 1, EngineWorkers: 1}, goldenBench24},
		{"friction12", SystemConfig{Beads: 12, StartZ: 5, EquilSteps: 300, DT: 0.01, Temp: 300, PoreFriction: 5}, goldenFriction12},
	} {
		if got := sweepDigest(t, tc.sc); got != tc.want {
			t.Errorf("%s: work-log digest %s, want %s", tc.name, got, tc.want)
		}
	}

	spec := md.DefaultTranslocation(20)
	spec.NoWalls = false
	spec.Seed = 4402
	sys, err := md.BuildTranslocation(spec)
	if err != nil {
		t.Fatal(err)
	}
	sys.Engine.Run(2000)
	h := sha256.New()
	put := func(x float64) { h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x))) }
	st := sys.Engine.State()
	for i := range st.Pos {
		for _, v := range [...]vec.V{st.Pos[i], st.Vel[i]} {
			put(v.X)
			put(v.Y)
			put(v.Z)
		}
	}
	en := sys.Engine.Energies()
	names := make([]string, 0, len(en))
	for name := range en {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.Write([]byte(name))
		put(en[name])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenWalled20 {
		t.Errorf("walled20: state digest %s after 2000 steps, want %s", got, goldenWalled20)
	}
}
