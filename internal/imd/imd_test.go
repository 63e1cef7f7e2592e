package imd

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"spice/internal/forcefield"
	"spice/internal/md"
	"spice/internal/netsim"
	"spice/internal/topology"
)

func TestMessageRoundTrip(t *testing.T) {
	msgs := []*Message{
		{Type: MsgHandshake, NAtoms: 42},
		{Type: MsgFrame, Step: 100, Time: 1.5, Coords: []float32{1, 2, 3, 4, 5, 6}},
		{Type: MsgForce, Atom: 7, FX: 0.1, FY: -0.2, FZ: 3.5},
		{Type: MsgAck},
		{Type: MsgPause},
		{Type: MsgResume},
		{Type: MsgDetach},
		{Type: MsgEnergy, Time: 2.5, FX: -100.25},
	}
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := Write(&buf, m); err != nil {
			t.Fatalf("write %v: %v", m.Type, err)
		}
	}
	for _, want := range msgs {
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("read %v: %v", want.Type, err)
		}
		if got.Type != want.Type || got.NAtoms != want.NAtoms || got.Step != want.Step ||
			got.Time != want.Time || got.Atom != want.Atom ||
			got.FX != want.FX || got.FY != want.FY || got.FZ != want.FZ {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, want)
		}
		if len(got.Coords) != len(want.Coords) {
			t.Fatalf("coords length: %d vs %d", len(got.Coords), len(want.Coords))
		}
		for i := range got.Coords {
			if got.Coords[i] != want.Coords[i] {
				t.Fatal("coords corrupted")
			}
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte{0xFF})); err == nil {
		t.Fatal("unknown type accepted")
	}
	// Implausible frame size.
	var buf bytes.Buffer
	_ = Write(&buf, &Message{Type: MsgFrame, Coords: []float32{1, 2, 3}})
	b := buf.Bytes()
	// Corrupt the coord count (bytes 17..20 after type+step+time).
	b[17], b[18], b[19], b[20] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, err := Read(bytes.NewReader(b)); err == nil {
		t.Fatal("implausible coord count accepted")
	}
	// Truncated stream.
	if _, err := Read(bytes.NewReader(buf.Bytes()[:5])); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated read err = %v", err)
	}
	if _, err := Read(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty read err = %v", err)
	}
	// A bare 21-byte frame header claiming the largest coordinate count
	// Read accepts (3·2²⁴, 201 MB of float32s) and nothing after it: the
	// decoder may allocate only what bytes arrive, not what the header
	// claims.
	hdr := make([]byte, FrameBytes(0))
	hdr[0] = byte(MsgFrame)
	binary.LittleEndian.PutUint32(hdr[17:], 3*maxAtoms)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("header-only frame err = %v, want %v", err, io.ErrUnexpectedEOF)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("header-only frame allocated %d bytes", grew)
	}
}

// FuzzRead feeds arbitrary bytes to Read, as a peer could: every input
// either decodes or errors, never panics, and a message that decodes
// re-encodes to exactly the bytes it was read from.
func FuzzRead(f *testing.F) {
	for _, m := range []*Message{
		{Type: MsgHandshake, NAtoms: 2},
		{Type: MsgFrame, Step: 7, Time: 0.5, Coords: []float32{1, 2, 3, 4, 5, 6}},
		{Type: MsgForce, Atom: 1, FX: 0.5, FY: math.NaN(), FZ: math.Inf(1)},
		{Type: MsgEnergy, Time: 1, FX: -3},
		{Type: MsgDetach},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{byte(MsgFrame), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		m, err := Read(r)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatalf("decoded %v does not re-encode: %v", m.Type, err)
		}
		if read := data[:len(data)-r.Len()]; !bytes.Equal(buf.Bytes(), read) {
			t.Fatalf("%v re-encodes to %x, was read from %x", m.Type, buf.Bytes(), read)
		}
	})
}

// TestClientRejectsMisSizedFrame: a frame whose coordinate count is not
// 3·NAtoms ends the client's session with an error before OnFrame sees
// it.
func TestClientRejectsMisSizedFrame(t *testing.T) {
	simConn, visConn := net.Pipe()
	defer simConn.Close()
	defer visConn.Close()
	go func() {
		defer simConn.Close()
		_ = Write(simConn, &Message{Type: MsgHandshake, NAtoms: 2})
		_ = Write(simConn, &Message{Type: MsgFrame, Coords: []float32{1, 2, 3}})
		_, _ = Read(simConn) // the reply of a client that took the frame
	}()
	client, err := Connect(visConn)
	if err != nil {
		t.Fatal(err)
	}
	client.OnFrame = func(int64, float64, []float32) *Message {
		t.Error("OnFrame saw a mis-sized frame")
		return nil
	}
	if err := client.Run(); err == nil {
		t.Fatal("a 3-coordinate frame for 2 atoms was accepted")
	}
	if client.FramesSeen != 0 {
		t.Fatalf("FramesSeen = %d, want 0", client.FramesSeen)
	}
}

// TestServeRejectsBadForce: a force on an atom outside [0, N) or with a
// component that is not finite ends the session with an error, and
// reaches neither the engine's external forces nor the session stats.
func TestServeRejectsBadForce(t *testing.T) {
	for name, force := range map[string]*Message{
		"negative atom": {Type: MsgForce, Atom: -1, FX: 1},
		"atom past N":   {Type: MsgForce, Atom: 1 << 20, FX: 1},
		"NaN component": {Type: MsgForce, Atom: 0, FY: math.NaN()},
		"Inf component": {Type: MsgForce, Atom: 0, FZ: math.Inf(-1)},
	} {
		t.Run(name, func(t *testing.T) {
			eng := testEngine(t, 23)
			simConn, visConn := net.Pipe()
			defer simConn.Close()
			defer visConn.Close()
			type served struct {
				st  *Stats
				err error
			}
			done := make(chan served, 1)
			go func() {
				st, err := Serve(eng, simConn, SessionConfig{Stride: 1, Frames: 5, Sync: true})
				done <- served{st, err}
			}()
			client, err := Connect(visConn)
			if err != nil {
				t.Fatal(err)
			}
			client.OnFrame = func(int64, float64, []float32) *Message { return force }
			go func() { _ = client.Run() }()
			select {
			case r := <-done:
				if r.err == nil {
					t.Fatalf("force %+v accepted", force)
				}
				if r.st.ForcesReceived != 0 || len(eng.External.F) != 0 {
					t.Fatalf("rejected force applied: %d received, external %v", r.st.ForcesReceived, eng.External.F)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Serve did not end on a bad force")
			}
		})
	}
}

func TestFrameBytes(t *testing.T) {
	if FrameBytes(0) != 21 {
		t.Fatalf("empty frame = %d bytes", FrameBytes(0))
	}
	if FrameBytes(100)-FrameBytes(0) != 1200 {
		t.Fatal("12 bytes per atom expected")
	}
}

// testEngine builds a tiny chain engine for session tests.
func testEngine(t *testing.T, seed uint64) *md.Engine {
	t.Helper()
	top := topology.New()
	p := topology.DefaultDNA(4)
	_, pos, err := topology.BuildDNA(top, p)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := md.New(md.Config{
		Top:   top,
		Init:  pos,
		Terms: []forcefield.Term{forcefield.Bonds{Top: top}},
		Seed:  seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestSyncSessionExchangesFramesAndForces(t *testing.T) {
	eng := testEngine(t, 1)
	simConn, visConn := net.Pipe()
	defer simConn.Close()
	defer visConn.Close()

	var wg sync.WaitGroup
	var stats *Stats
	var serveErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		stats, serveErr = Serve(eng, simConn, SessionConfig{Stride: 5, Frames: 10, Sync: true})
	}()

	client, err := Connect(visConn)
	if err != nil {
		t.Fatal(err)
	}
	if client.NAtoms != 4 {
		t.Fatalf("handshake atoms = %d", client.NAtoms)
	}
	forcesSent := 0
	client.OnFrame = func(step int64, _ float64, coords []float32) *Message {
		if len(coords) != 12 {
			t.Errorf("frame has %d coords", len(coords))
		}
		// Steer atom 0 upward on every other frame.
		if client.FramesSeen%2 == 0 {
			forcesSent++
			return &Message{Type: MsgForce, Atom: 0, FZ: 2}
		}
		return nil
	}
	if err := client.Run(); err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		t.Fatalf("client: %v", err)
	}
	wg.Wait()
	if serveErr != nil {
		t.Fatalf("serve: %v", serveErr)
	}
	if stats.Frames != 10 {
		t.Fatalf("frames = %d", stats.Frames)
	}
	if stats.Steps != 50 {
		t.Fatalf("steps = %d", stats.Steps)
	}
	if stats.ForcesReceived != forcesSent {
		t.Fatalf("forces received %d, sent %d", stats.ForcesReceived, forcesSent)
	}
	if client.FramesSeen != 10 {
		t.Fatalf("client saw %d frames", client.FramesSeen)
	}
}

func TestSessionPauseResume(t *testing.T) {
	eng := testEngine(t, 2)
	simConn, visConn := net.Pipe()
	defer simConn.Close()
	defer visConn.Close()

	var stats *Stats
	done := make(chan error, 1)
	go func() {
		var err error
		stats, err = Serve(eng, simConn, SessionConfig{Stride: 2, Frames: 6, Sync: true})
		done <- err
	}()
	client, err := Connect(visConn)
	if err != nil {
		t.Fatal(err)
	}
	// Pause after frame 2, resume after frame 4.
	client.OnFrame = func(int64, float64, []float32) *Message {
		switch client.FramesSeen {
		case 2:
			return &Message{Type: MsgPause}
		case 4:
			return &Message{Type: MsgResume}
		}
		return nil
	}
	if err := client.Run(); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Frames 4 and 5 are produced while paused (no stepping): 6 frames
	// but fewer than 12 steps.
	if stats.Steps >= 12 {
		t.Fatalf("pause did not stop stepping: %d steps", stats.Steps)
	}
}

func TestSessionClientDetach(t *testing.T) {
	eng := testEngine(t, 3)
	simConn, visConn := net.Pipe()
	defer simConn.Close()
	defer visConn.Close()
	done := make(chan error, 1)
	go func() {
		_, err := Serve(eng, simConn, SessionConfig{Stride: 1, Frames: 1000, Sync: true})
		done <- err
	}()
	client, err := Connect(visConn)
	if err != nil {
		t.Fatal(err)
	}
	client.OnFrame = func(int64, float64, []float32) *Message {
		if client.FramesSeen >= 3 {
			return &Message{Type: MsgDetach}
		}
		return nil
	}
	_ = client.Run()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve after detach: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not stop on detach")
	}
}

func TestSyncSessionStallsOnSlowNetwork(t *testing.T) {
	run := func(p netsim.Profile) *Stats {
		eng := testEngine(t, 4)
		simConn, visConn := netsim.Pipe(p, 0.02, 9) // 2% scale keeps test fast
		defer simConn.Close()
		defer visConn.Close()
		statsCh := make(chan *Stats, 1)
		go func() {
			s, _ := Serve(eng, simConn, SessionConfig{Stride: 3, Frames: 15, Sync: true})
			statsCh <- s
		}()
		client, err := Connect(visConn)
		if err != nil {
			t.Fatal(err)
		}
		_ = client.Run()
		return <-statsCh
	}
	fast := run(netsim.LAN)
	slow := run(netsim.Congested)
	if slow.Stall <= fast.Stall {
		t.Fatalf("congested stall %v not worse than LAN %v", slow.Stall, fast.Stall)
	}
	if slow.StallFraction() <= fast.StallFraction() {
		t.Fatalf("stall fractions: congested %v vs LAN %v", slow.StallFraction(), fast.StallFraction())
	}
}

func TestHapticSteersAtomToTarget(t *testing.T) {
	eng := testEngine(t, 5)
	startZ := eng.State().Pos[0].Z
	target := startZ + 15
	simConn, visConn := net.Pipe()
	defer simConn.Close()
	defer visConn.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = Serve(eng, simConn, SessionConfig{Stride: 20, Frames: 120, Sync: true})
	}()
	client, err := Connect(visConn)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHaptic(0, target, 10)
	client.OnFrame = h.OnFrame
	_ = client.Run()
	<-done
	endZ := eng.State().Pos[0].Z
	if endZ-startZ < 5 {
		t.Fatalf("haptic steering moved atom by %v Å, want > 5", endZ-startZ)
	}
	if h.PeakForcePN() <= 0 {
		t.Fatal("no haptic force recorded")
	}
	if len(h.ForceLog) != 120 {
		t.Fatalf("force log has %d entries", len(h.ForceLog))
	}
}

func TestStatsDerivedMetrics(t *testing.T) {
	s := Stats{Compute: 3 * time.Second, Stall: time.Second}
	if sf := s.StallFraction(); sf != 0.25 {
		t.Fatalf("stall fraction = %v", sf)
	}
	if sl := s.Slowdown(); sl != 4.0/3 {
		t.Fatalf("slowdown = %v", sl)
	}
	var zero Stats
	if zero.StallFraction() != 0 || zero.Slowdown() != 1 {
		t.Fatal("zero stats metrics wrong")
	}
}

func TestModelSyncLightpathVsCongested(t *testing.T) {
	base := ModelConfig{
		ComputePerFrame: time.Second,
		RenderTime:      30 * time.Millisecond,
		NAtoms:          300000,
		Frames:          50,
		Sync:            true,
		Seed:            1,
	}
	light := base
	light.Profile = netsim.Lightpath
	cong := base
	cong.Profile = netsim.Congested
	ls := SimulateSession(light)
	cs := SimulateSession(cong)
	// Lightpath: ~80 ms RTT + render on 1 s compute → slowdown < 1.2.
	if ls.Slowdown > 1.25 {
		t.Fatalf("lightpath slowdown = %v", ls.Slowdown)
	}
	// Congested: 3.6 MB frames at 20 Mbps ≈ +1.4 s/frame → slowdown > 2.
	if cs.Slowdown < 2 {
		t.Fatalf("congested slowdown = %v", cs.Slowdown)
	}
	if cs.FPS >= ls.FPS {
		t.Fatal("congested should achieve lower FPS")
	}
}

func TestModelAsyncHidesLatency(t *testing.T) {
	cfg := ModelConfig{
		ComputePerFrame: 500 * time.Millisecond,
		RenderTime:      30 * time.Millisecond,
		NAtoms:          300000,
		Frames:          50,
		Profile:         netsim.SharedWAN,
		Seed:            2,
	}
	sync := cfg
	sync.Sync = true
	asyncStats := SimulateSession(cfg)
	syncStats := SimulateSession(sync)
	if asyncStats.Slowdown >= syncStats.Slowdown {
		t.Fatalf("async %v should beat sync %v", asyncStats.Slowdown, syncStats.Slowdown)
	}
}

func TestPaperComputePerFrame(t *testing.T) {
	// 128 procs, 1 step: the paper's 86.4 ms.
	if d := PaperComputePerFrame(128, 1); d != time.Duration(86.4*float64(time.Millisecond)) {
		t.Fatalf("128-proc step = %v", d)
	}
	// Doubling processors halves the time.
	if PaperComputePerFrame(256, 100) != PaperComputePerFrame(128, 100)/2 {
		t.Fatal("scaling not linear")
	}
	if PaperComputePerFrame(0, 1) != PaperComputePerFrame(128, 1) {
		t.Fatal("default procs should be 128")
	}
}
