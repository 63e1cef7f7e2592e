// Package trace implements the on-disk formats SPICE uses to move data
// between the distributed pieces of the pipeline: trajectory frames
// (simulation → visualizer / archive), work logs (SMD runs → Jarzynski
// analysis), and checkpoints (steering-initiated checkpoint & clone).
//
// Formats are deliberately simple and self-describing:
//
//   - Trajectories: binary, little-endian, "SPTRJ1" magic, frame-per-record.
//   - Work logs: line-oriented text ("position work" pairs with a # header),
//     so they survive transfer between heterogeneous grid sites.
//   - Checkpoints: binary snapshot of positions + velocities + step + time.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"spice/internal/vec"
)

// Frame is one trajectory snapshot.
type Frame struct {
	Step int64
	Time float64 // ps
	Pos  []vec.V // Å
}

const trajMagic = "SPTRJ1"

// ErrFormat indicates a corrupted or foreign stream.
var ErrFormat = errors.New("trace: bad format")

// ErrTruncated indicates a stream that ended mid-record — a partial
// transfer or a file cut short by a crashed writer. It wraps
// io.ErrUnexpectedEOF, so errors.Is works with either sentinel. Consumers
// that resume from checkpoints (the dist runtime) rely on this being a
// typed, detectable condition rather than a panic or silent garbage.
var ErrTruncated = fmt.Errorf("trace: truncated stream: %w", io.ErrUnexpectedEOF)

// truncated converts an end-of-stream error seen mid-record into
// ErrTruncated; other errors pass through.
func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTruncated
	}
	return err
}

// TrajectoryWriter streams frames to w.
type TrajectoryWriter struct {
	w     *bufio.Writer
	n     int // atoms per frame, fixed after first frame
	wrote bool
}

// NewTrajectoryWriter returns a writer that emits the SPTRJ1 header on the
// first frame.
func NewTrajectoryWriter(w io.Writer) *TrajectoryWriter {
	return &TrajectoryWriter{w: bufio.NewWriter(w)}
}

// WriteFrame appends one frame. All frames must have the same atom count.
func (tw *TrajectoryWriter) WriteFrame(f Frame) error {
	if !tw.wrote {
		if _, err := tw.w.WriteString(trajMagic); err != nil {
			return err
		}
		tw.n = len(f.Pos)
		if err := binary.Write(tw.w, binary.LittleEndian, int64(tw.n)); err != nil {
			return err
		}
		tw.wrote = true
	}
	if len(f.Pos) != tw.n {
		return fmt.Errorf("trace: frame has %d atoms, trajectory has %d", len(f.Pos), tw.n)
	}
	if err := binary.Write(tw.w, binary.LittleEndian, f.Step); err != nil {
		return err
	}
	if err := binary.Write(tw.w, binary.LittleEndian, f.Time); err != nil {
		return err
	}
	for _, p := range f.Pos {
		if err := binary.Write(tw.w, binary.LittleEndian, [3]float64{p.X, p.Y, p.Z}); err != nil {
			return err
		}
	}
	return nil
}

// Flush flushes buffered frames to the underlying writer.
func (tw *TrajectoryWriter) Flush() error { return tw.w.Flush() }

// TrajectoryReader reads frames written by TrajectoryWriter.
type TrajectoryReader struct {
	r      *bufio.Reader
	n      int
	header bool
}

// NewTrajectoryReader wraps r.
func NewTrajectoryReader(r io.Reader) *TrajectoryReader {
	return &TrajectoryReader{r: bufio.NewReader(r)}
}

func (tr *TrajectoryReader) readHeader() error {
	buf := make([]byte, len(trajMagic))
	if _, err := io.ReadFull(tr.r, buf); err != nil {
		return err
	}
	if string(buf) != trajMagic {
		return ErrFormat
	}
	var n int64
	if err := binary.Read(tr.r, binary.LittleEndian, &n); err != nil {
		return err
	}
	if n < 0 || n > 1<<30 {
		return ErrFormat
	}
	tr.n = int(n)
	tr.header = true
	return nil
}

// ReadFrame returns the next frame, or io.EOF at end of stream.
func (tr *TrajectoryReader) ReadFrame() (Frame, error) {
	if !tr.header {
		if err := tr.readHeader(); err != nil {
			return Frame{}, err
		}
	}
	var f Frame
	if err := binary.Read(tr.r, binary.LittleEndian, &f.Step); err != nil {
		return Frame{}, err // io.EOF propagates cleanly here
	}
	if err := binary.Read(tr.r, binary.LittleEndian, &f.Time); err != nil {
		return Frame{}, unexpected(err)
	}
	f.Pos = make([]vec.V, tr.n)
	for i := range f.Pos {
		var p [3]float64
		if err := binary.Read(tr.r, binary.LittleEndian, &p); err != nil {
			return Frame{}, unexpected(err)
		}
		f.Pos[i] = vec.V{X: p[0], Y: p[1], Z: p[2]}
	}
	return f, nil
}

func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// WorkSample is one (reaction-coordinate, accumulated-work) pair from an
// SMD pull, with the trajectory's parameters attached so downstream
// analysis can group samples.
type WorkSample struct {
	Lambda float64 // scheduled pulling-atom position along the axis, Å
	Z      float64 // actual COM position, Å
	Work   float64 // accumulated external work, kcal/mol
}

// WorkLog is the complete record of one SMD pull.
type WorkLog struct {
	Kappa    float64 // spring constant, kcal/mol/Å²
	Velocity float64 // pulling velocity, Å/ps
	Seed     uint64
	Samples  []WorkSample
}

// WriteWorkLog writes wl as line-oriented text.
func WriteWorkLog(w io.Writer, wl *WorkLog) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# spice-worklog v1 kappa=%.17g velocity=%.17g seed=%d n=%d\n",
		wl.Kappa, wl.Velocity, wl.Seed, len(wl.Samples)); err != nil {
		return err
	}
	for _, s := range wl.Samples {
		if _, err := fmt.Fprintf(bw, "%.17g %.17g %.17g\n", s.Lambda, s.Z, s.Work); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadWorkLog parses a work log written by WriteWorkLog.
func ReadWorkLog(r io.Reader) (*WorkLog, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.ErrUnexpectedEOF
	}
	header := sc.Text()
	if !strings.HasPrefix(header, "# spice-worklog v1 ") {
		return nil, ErrFormat
	}
	wl := &WorkLog{}
	n := -1
	for _, field := range strings.Fields(header[len("# spice-worklog v1 "):]) {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return nil, ErrFormat
		}
		var err error
		switch k {
		case "kappa":
			wl.Kappa, err = strconv.ParseFloat(v, 64)
		case "velocity":
			wl.Velocity, err = strconv.ParseFloat(v, 64)
		case "seed":
			wl.Seed, err = strconv.ParseUint(v, 10, 64)
		case "n":
			n, err = strconv.Atoi(v)
		default:
			// Unknown keys are tolerated for forward compatibility.
		}
		if err != nil {
			return nil, fmt.Errorf("trace: work log header field %q: %w", field, err)
		}
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("trace: work log line %q: %w", line, ErrFormat)
		}
		var s WorkSample
		var err error
		if s.Lambda, err = strconv.ParseFloat(fields[0], 64); err != nil {
			return nil, err
		}
		if s.Z, err = strconv.ParseFloat(fields[1], 64); err != nil {
			return nil, err
		}
		if s.Work, err = strconv.ParseFloat(fields[2], 64); err != nil {
			return nil, err
		}
		wl.Samples = append(wl.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n >= 0 && n != len(wl.Samples) {
		return nil, fmt.Errorf("trace: work log declared %d samples, found %d: %w", n, len(wl.Samples), ErrFormat)
	}
	return wl, nil
}

// Checkpoint is a restartable snapshot of a simulation's dynamical state.
// The steering layer (RealityGrid "checkpoint and clone") serializes these
// to move or duplicate running simulations across grid resources, and the
// dist runtime ships them between coordinator and workers so a reassigned
// job resumes instead of restarting.
type Checkpoint struct {
	Step int64
	Time float64
	Pos  []vec.V
	Vel  []vec.V
	Seed uint64 // RNG reseed value for the clone; 0 keeps the original stream
	// RNG is the serialized state of the engine's live random streams
	// (md.Engine.Checkpoint fills it). nil means "reseed from Seed" —
	// what clones want. When present, a restore resumes the exact random
	// sequence, which bit-exact job resume depends on.
	RNG []uint64
	// NeighborRef holds the neighbor-list reference positions at
	// checkpoint time (len 0 or len(Pos)). Restoring them rebuilds the
	// exact pair list the uninterrupted run was using, so force sums —
	// which are order-sensitive in floating point — stay bit-identical
	// across a resume.
	NeighborRef []vec.V
	// Force holds the integrator's cached force array (len 0 or
	// len(Pos)). The BAOAB step carries f(t) across the step
	// boundary, and steering layers (the SMD spring's λ) may have
	// advanced since that evaluation — so the cached values cannot be
	// reproduced by re-evaluating at restore time. Carrying them makes
	// the first resumed step identical to the uninterrupted one.
	Force []vec.V
}

const (
	ckptMagic = "SPCKP2"
	// maxCkptRNG bounds the RNG block a reader will accept.
	maxCkptRNG = 1 << 10
)

// WriteCheckpoint serializes c to w in the SPCKP2 format.
func WriteCheckpoint(w io.Writer, c *Checkpoint) error {
	if len(c.Pos) != len(c.Vel) {
		return fmt.Errorf("trace: checkpoint pos/vel length mismatch %d != %d", len(c.Pos), len(c.Vel))
	}
	if len(c.NeighborRef) != 0 && len(c.NeighborRef) != len(c.Pos) {
		return fmt.Errorf("trace: checkpoint neighbor ref has %d atoms, state has %d", len(c.NeighborRef), len(c.Pos))
	}
	if len(c.Force) != 0 && len(c.Force) != len(c.Pos) {
		return fmt.Errorf("trace: checkpoint force block has %d atoms, state has %d", len(c.Force), len(c.Pos))
	}
	if len(c.RNG) > maxCkptRNG {
		return fmt.Errorf("trace: checkpoint RNG block too large (%d words)", len(c.RNG))
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(ckptMagic); err != nil {
		return err
	}
	hdr := []any{c.Step, c.Time, c.Seed, int64(len(c.Pos)), int64(len(c.RNG)), int64(len(c.NeighborRef)), int64(len(c.Force))}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, set := range [][]vec.V{c.Pos, c.Vel, c.NeighborRef, c.Force} {
		for _, p := range set {
			if err := binary.Write(bw, binary.LittleEndian, [3]float64{p.X, p.Y, p.Z}); err != nil {
				return err
			}
		}
	}
	for _, v := range c.RNG {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCheckpoint deserializes a checkpoint written by WriteCheckpoint (the
// SPCKP2 format, the only one). Truncated input yields ErrTruncated;
// foreign or internally inconsistent input yields ErrFormat.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReader(r)
	buf := make([]byte, len(ckptMagic))
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, truncated(err)
	}
	if string(buf) != ckptMagic {
		return nil, ErrFormat
	}
	var c Checkpoint
	var n, nrng, nref, nfrc int64
	for _, p := range []any{&c.Step, &c.Time, &c.Seed, &n, &nrng, &nref, &nfrc} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, truncated(err)
		}
	}
	if n < 0 || n > 1<<30 {
		return nil, ErrFormat
	}
	if nrng < 0 || nrng > maxCkptRNG {
		return nil, ErrFormat
	}
	if nref != 0 && nref != n {
		return nil, ErrFormat
	}
	if nfrc != 0 && nfrc != n {
		return nil, ErrFormat
	}
	// The counts come from the input, which may be a peer's: the blocks
	// grow as their bytes arrive, so a header that claims 2^30 atoms costs
	// what the input supplies, not gigabytes up front.
	for _, blk := range []struct {
		set *[]vec.V
		n   int64
	}{{&c.Pos, n}, {&c.Vel, n}, {&c.NeighborRef, nref}, {&c.Force, nfrc}} {
		for i := int64(0); i < blk.n; i++ {
			var p [3]float64
			if err := binary.Read(br, binary.LittleEndian, &p); err != nil {
				return nil, truncated(err)
			}
			if math.IsNaN(p[0]) || math.IsNaN(p[1]) || math.IsNaN(p[2]) {
				return nil, fmt.Errorf("trace: checkpoint contains NaN: %w", ErrFormat)
			}
			*blk.set = append(*blk.set, vec.V{X: p[0], Y: p[1], Z: p[2]})
		}
	}
	if nrng > 0 {
		c.RNG = make([]uint64, nrng)
		for i := range c.RNG {
			if err := binary.Read(br, binary.LittleEndian, &c.RNG[i]); err != nil {
				return nil, truncated(err)
			}
		}
	}
	return &c, nil
}
