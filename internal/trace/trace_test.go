package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"spice/internal/vec"
	"spice/internal/xrand"
)

func randFrame(rng *xrand.Source, n int, step int64) Frame {
	f := Frame{Step: step, Time: float64(step) * 0.01, Pos: make([]vec.V, n)}
	for i := range f.Pos {
		f.Pos[i] = vec.V{X: rng.NormFloat64() * 10, Y: rng.NormFloat64() * 10, Z: rng.NormFloat64() * 10}
	}
	return f
}

func TestTrajectoryRoundTrip(t *testing.T) {
	rng := xrand.New(1)
	var buf bytes.Buffer
	w := NewTrajectoryWriter(&buf)
	var frames []Frame
	for i := 0; i < 7; i++ {
		f := randFrame(rng, 13, int64(i*100))
		frames = append(frames, f)
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewTrajectoryReader(&buf)
	for i := 0; ; i++ {
		f, err := r.ReadFrame()
		if err == io.EOF {
			if i != len(frames) {
				t.Fatalf("read %d frames, wrote %d", i, len(frames))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if f.Step != frames[i].Step || f.Time != frames[i].Time {
			t.Fatalf("frame %d header mismatch", i)
		}
		for j := range f.Pos {
			if f.Pos[j] != frames[i].Pos[j] {
				t.Fatalf("frame %d atom %d: %v != %v", i, j, f.Pos[j], frames[i].Pos[j])
			}
		}
	}
}

func TestTrajectoryAtomCountMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := NewTrajectoryWriter(&buf)
	if err := w.WriteFrame(Frame{Pos: make([]vec.V, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(Frame{Pos: make([]vec.V, 4)}); err == nil {
		t.Fatal("atom-count change should error")
	}
}

func TestTrajectoryBadMagic(t *testing.T) {
	r := NewTrajectoryReader(strings.NewReader("NOTRJX\x00\x00\x00\x00\x00\x00\x00\x00"))
	if _, err := r.ReadFrame(); err != ErrFormat {
		t.Fatalf("err = %v, want ErrFormat", err)
	}
}

func TestTrajectoryTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewTrajectoryWriter(&buf)
	if err := w.WriteFrame(randFrame(xrand.New(2), 5, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	r := NewTrajectoryReader(bytes.NewReader(data[:len(data)-8]))
	if _, err := r.ReadFrame(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated read err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestWorkLogRoundTrip(t *testing.T) {
	wl := &WorkLog{Kappa: 1.4393, Velocity: 0.0125, Seed: 42}
	rng := xrand.New(3)
	for i := 0; i < 50; i++ {
		wl.Samples = append(wl.Samples, WorkSample{
			Lambda: float64(i) * 0.2,
			Z:      float64(i)*0.2 + rng.NormFloat64()*0.1,
			Work:   rng.NormFloat64() * 5,
		})
	}
	var buf bytes.Buffer
	if err := WriteWorkLog(&buf, wl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWorkLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kappa != wl.Kappa || got.Velocity != wl.Velocity || got.Seed != wl.Seed {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Samples) != len(wl.Samples) {
		t.Fatalf("samples %d != %d", len(got.Samples), len(wl.Samples))
	}
	for i := range got.Samples {
		if got.Samples[i] != wl.Samples[i] {
			t.Fatalf("sample %d: %+v != %+v", i, got.Samples[i], wl.Samples[i])
		}
	}
}

func TestWorkLogPropertyRoundTrip(t *testing.T) {
	f := func(kappa, velocity float64, seed uint64, vals []float64) bool {
		if math.IsNaN(kappa) || math.IsInf(kappa, 0) || math.IsNaN(velocity) || math.IsInf(velocity, 0) {
			return true
		}
		wl := &WorkLog{Kappa: kappa, Velocity: velocity, Seed: seed}
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			wl.Samples = append(wl.Samples, WorkSample{Lambda: float64(i), Z: v, Work: -v})
		}
		var buf bytes.Buffer
		if err := WriteWorkLog(&buf, wl); err != nil {
			return false
		}
		got, err := ReadWorkLog(&buf)
		if err != nil {
			return false
		}
		if got.Kappa != kappa || got.Velocity != velocity || got.Seed != seed || len(got.Samples) != len(wl.Samples) {
			return false
		}
		for i := range got.Samples {
			if got.Samples[i] != wl.Samples[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWorkLogRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"hello\n1 2 3\n",
		"# spice-worklog v1 kappa=1 velocity=1 seed=0 n=2\n1 2 3\n", // wrong count
		"# spice-worklog v1 kappa=1 velocity=1 seed=0 n=1\n1 2\n",   // wrong columns
		"# spice-worklog v1 kappa=abc velocity=1 seed=0 n=0\n",      // bad float
	}
	for i, c := range cases {
		if _, err := ReadWorkLog(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestWorkLogSkipsCommentsAndBlanks(t *testing.T) {
	in := "# spice-worklog v1 kappa=1 velocity=2 seed=3 n=1\n\n# comment\n0.5 0.6 0.7\n"
	wl, err := ReadWorkLog(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.Samples) != 1 || wl.Samples[0].Work != 0.7 {
		t.Fatalf("got %+v", wl)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	rng := xrand.New(4)
	c := &Checkpoint{Step: 12345, Time: 67.25, Seed: 99}
	for i := 0; i < 20; i++ {
		c.Pos = append(c.Pos, vec.V{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()})
		c.Vel = append(c.Vel, vec.V{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()})
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != c.Step || got.Time != c.Time || got.Seed != c.Seed {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range c.Pos {
		if got.Pos[i] != c.Pos[i] || got.Vel[i] != c.Vel[i] {
			t.Fatalf("state mismatch at %d", i)
		}
	}
}

func TestCheckpointLengthMismatch(t *testing.T) {
	c := &Checkpoint{Pos: make([]vec.V, 2), Vel: make([]vec.V, 3)}
	if err := WriteCheckpoint(io.Discard, c); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestCheckpointRejectsNaN(t *testing.T) {
	c := &Checkpoint{Pos: []vec.V{{X: math.NaN()}}, Vel: []vec.V{{}}}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, c); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(&buf); err == nil {
		t.Fatal("NaN checkpoint should be rejected on read")
	}
}

func TestCheckpointBadMagic(t *testing.T) {
	if _, err := ReadCheckpoint(strings.NewReader("XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX")); err != ErrFormat {
		t.Fatalf("err = %v, want ErrFormat", err)
	}
}

func TestCheckpointTruncated(t *testing.T) {
	c := &Checkpoint{Step: 1, Pos: make([]vec.V, 4), Vel: make([]vec.V, 4)}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, c); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	got, err := ReadCheckpoint(bytes.NewReader(data[:len(data)-4]))
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	// ErrTruncated wraps io.ErrUnexpectedEOF for pre-existing callers.
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v should wrap io.ErrUnexpectedEOF", err)
	}
	if got != nil {
		t.Fatal("truncated read returned a checkpoint")
	}
}

func TestCheckpointTruncatedAtEveryPrefix(t *testing.T) {
	c := &Checkpoint{
		Step: 7, Time: 1.5, Seed: 3,
		Pos:         []vec.V{{X: 1}, {Y: 2}},
		Vel:         []vec.V{{Z: 3}, {X: 4}},
		RNG:         []uint64{1, 2, 3, 4, 5, 6},
		NeighborRef: []vec.V{{X: 1}, {Y: 2}},
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, c); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		_, err := ReadCheckpoint(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", cut, len(data))
		}
		// Every truncation point must yield the typed error, never a
		// panic or silent garbage. (A cut inside the magic can also
		// legitimately classify as ErrFormat-with-enough-bytes, but with
		// a 6-byte magic any strict prefix is a short read.)
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrFormat) {
			t.Fatalf("prefix %d: err = %v, want ErrTruncated or ErrFormat", cut, err)
		}
	}
}

func TestCheckpointRNGAndRefRoundTrip(t *testing.T) {
	c := &Checkpoint{
		Step: 42, Time: 0.5, Seed: 9,
		Pos:         []vec.V{{X: 1, Y: 2, Z: 3}, {X: -1}},
		Vel:         []vec.V{{Y: 0.25}, {Z: -0.125}},
		RNG:         []uint64{0xdead, 0xbeef, 1, 0, 0x7fffffffffffffff, 5},
		NeighborRef: []vec.V{{X: 1.0000001, Y: 2, Z: 3}, {X: -1.5}},
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.RNG) != len(c.RNG) {
		t.Fatalf("RNG words = %d, want %d", len(got.RNG), len(c.RNG))
	}
	for i := range c.RNG {
		if got.RNG[i] != c.RNG[i] {
			t.Fatalf("RNG[%d] = %#x, want %#x", i, got.RNG[i], c.RNG[i])
		}
	}
	for i := range c.NeighborRef {
		if got.NeighborRef[i] != c.NeighborRef[i] {
			t.Fatalf("NeighborRef[%d] mismatch", i)
		}
	}
}

// TestCheckpointRejectsLegacyV1: SPCKP1, the layout before the RNG,
// neighbor-ref and force blocks, is no longer read.
func TestCheckpointRejectsLegacyV1(t *testing.T) {
	// Hand-build a SPCKP1 stream: magic, step, time, seed, n, pos, vel.
	var buf bytes.Buffer
	buf.WriteString("SPCKP1")
	for _, v := range []any{int64(5), float64(2.5), uint64(77), int64(1),
		[3]float64{1, 2, 3}, [3]float64{4, 5, 6}} {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := ReadCheckpoint(&buf); !errors.Is(err, ErrFormat) {
		t.Fatalf("SPCKP1 stream read as %+v, err %v; want ErrFormat", got, err)
	}
}

func TestCheckpointRejectsInconsistentCounts(t *testing.T) {
	c := &Checkpoint{Pos: make([]vec.V, 3), Vel: make([]vec.V, 3), NeighborRef: make([]vec.V, 2)}
	if err := WriteCheckpoint(io.Discard, c); err == nil {
		t.Fatal("mismatched neighbor ref length accepted by writer")
	}
	// Corrupt a valid stream's nref field so it disagrees with n.
	c.NeighborRef = nil
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, c); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Header layout: magic(6) step(8) time(8) seed(8) n(8) nrng(8) nref(8).
	binary.LittleEndian.PutUint64(data[6+8*4:], 2) // nrng = 2 but no RNG block follows
	if _, err := ReadCheckpoint(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupt RNG count accepted")
	}
	binary.LittleEndian.PutUint64(data[6+8*4:], 0)
	binary.LittleEndian.PutUint64(data[6+8*5:], 1) // nref = 1 != n = 3
	if _, err := ReadCheckpoint(bytes.NewReader(data)); !errors.Is(err, ErrFormat) {
		t.Fatalf("inconsistent nref: err = %v, want ErrFormat", err)
	}
}
