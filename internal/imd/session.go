package imd

import (
	"fmt"
	"net"
	"time"

	"spice/internal/md"
	"spice/internal/vec"
)

// SessionConfig controls the simulation-side IMD loop.
type SessionConfig struct {
	// Stride is the number of MD steps between frames (default 10).
	Stride int
	// Frames is the number of frames to exchange before detaching.
	Frames int
	// Sync selects interactive mode: after each frame the simulation
	// blocks until the client responds (force or ack). This is the mode
	// whose stall time the paper's QoS argument is about. With Sync
	// false the simulation free-runs and applies whatever forces have
	// arrived (batch visualization / monitoring mode).
	Sync bool
}

// Stats summarizes a completed session from the simulation side.
type Stats struct {
	Frames         int
	ForcesReceived int
	Steps          int
	// Compute is wall time spent stepping the engine; Stall is wall
	// time blocked on the network (send + wait for response).
	Compute time.Duration
	Stall   time.Duration
}

// StallFraction is Stall/(Stall+Compute).
func (s Stats) StallFraction() float64 {
	total := s.Stall + s.Compute
	if total == 0 {
		return 0
	}
	return float64(s.Stall) / float64(total)
}

// Slowdown is the ratio of achieved wall time to pure-compute time: 1.0
// means the network is free.
func (s Stats) Slowdown() float64 {
	if s.Compute == 0 {
		return 1
	}
	return float64(s.Stall+s.Compute) / float64(s.Compute)
}

// Serve runs the simulation side of an IMD session over conn: handshake,
// then Frames iterations of [step Stride times, send frame, (Sync) await
// response, apply received forces]. It returns session statistics.
func Serve(eng *md.Engine, conn net.Conn, cfg SessionConfig) (*Stats, error) {
	if cfg.Stride <= 0 {
		cfg.Stride = 10
	}
	if cfg.Frames <= 0 {
		cfg.Frames = 1
	}
	n := eng.Topology().N()
	if err := Write(conn, &Message{Type: MsgHandshake, NAtoms: int32(n)}); err != nil {
		return nil, fmt.Errorf("imd: handshake: %w", err)
	}

	// Reader goroutine: decouples the socket from the MD loop so that in
	// async mode force messages are applied as they arrive.
	incoming := make(chan *Message, 64)
	readErr := make(chan error, 1)
	go func() {
		defer close(incoming)
		for {
			m, err := Read(conn)
			if err != nil {
				readErr <- err
				return
			}
			incoming <- m
			if m.Type == MsgDetach {
				return
			}
		}
	}()

	st := &Stats{}
	paused := false
	// applyMsg applies one client message; false ends the session: a
	// detach, or (with an error) a force not finite or off atoms [0, n).
	applyMsg := func(m *Message) (bool, error) {
		switch m.Type {
		case MsgForce:
			f := vec.V{X: m.FX, Y: m.FY, Z: m.FZ}
			if m.Atom < 0 || int(m.Atom) >= n || !f.IsFinite() {
				return false, fmt.Errorf("imd: refused force %v on atom %d of %d", f, m.Atom, n)
			}
			eng.External.Set(int(m.Atom), f)
			st.ForcesReceived++
		case MsgPause:
			paused = true
		case MsgResume:
			paused = false
		case MsgDetach:
			return false, nil
		}
		return true, nil
	}

	// clientLost reports the reader goroutine's error, if any, when the
	// incoming channel closes (a detach closes it without error).
	clientLost := func() error {
		select {
		case err := <-readErr:
			return fmt.Errorf("imd: client lost: %w", err)
		default:
			return nil
		}
	}

	for f := 0; f < cfg.Frames; f++ {
		// Drain any pending client messages (async input path).
	drain:
		for {
			select {
			case m, ok := <-incoming:
				if !ok {
					return st, clientLost()
				}
				if more, err := applyMsg(m); !more {
					return st, err
				}
			default:
				break drain
			}
		}
		if !paused {
			t0 := time.Now()
			eng.Run(cfg.Stride)
			st.Steps += cfg.Stride
			st.Compute += time.Since(t0)
		}

		frame := eng.Frame()
		coords := make([]float32, 0, 3*n)
		for _, p := range frame.Pos {
			coords = append(coords, float32(p.X), float32(p.Y), float32(p.Z))
		}
		t1 := time.Now()
		if err := Write(conn, &Message{Type: MsgFrame, Step: frame.Step, Time: frame.Time, Coords: coords}); err != nil {
			return st, fmt.Errorf("imd: frame send: %w", err)
		}
		st.Frames++
		if cfg.Sync {
			// Interactive mode: block for the client's response. This
			// wait is the stall the paper attributes to low-QoS paths.
			m, ok := <-incoming
			st.Stall += time.Since(t1)
			if !ok {
				return st, clientLost()
			}
			if more, err := applyMsg(m); !more {
				return st, err
			}
		} else {
			st.Stall += time.Since(t1) // send cost only
		}
	}
	_ = Write(conn, &Message{Type: MsgDetach})
	return st, nil
}

// Client is the visualizer/instrument side of a session.
type Client struct {
	conn   net.Conn
	NAtoms int
	// OnFrame, if set, inspects each received frame and returns the
	// force message to send back (nil → plain ack). This is where a
	// visualizer hangs its steering UI and a haptic device its force
	// feedback loop.
	OnFrame func(step int64, time float64, coords []float32) *Message

	FramesSeen int
}

// Connect performs the client handshake.
func Connect(conn net.Conn) (*Client, error) {
	m, err := Read(conn)
	if err != nil {
		return nil, fmt.Errorf("imd: awaiting handshake: %w", err)
	}
	if m.Type != MsgHandshake {
		return nil, fmt.Errorf("imd: expected handshake, got %v", m.Type)
	}
	return &Client{conn: conn, NAtoms: int(m.NAtoms)}, nil
}

// Run processes frames until detach or error; a frame of other than
// 3·NAtoms coordinates is an error. It answers every frame, as sync
// sessions need.
func (c *Client) Run() error {
	for {
		m, err := Read(c.conn)
		if err != nil {
			return err
		}
		switch m.Type {
		case MsgFrame:
			if len(m.Coords) != 3*c.NAtoms {
				return fmt.Errorf("imd: frame of %d coordinates, want %d for %d atoms", len(m.Coords), 3*c.NAtoms, c.NAtoms)
			}
			c.FramesSeen++
			var reply *Message
			if c.OnFrame != nil {
				reply = c.OnFrame(m.Step, m.Time, m.Coords)
			}
			if reply == nil {
				reply = &Message{Type: MsgAck}
			}
			if err := Write(c.conn, reply); err != nil {
				return err
			}
			if reply.Type == MsgDetach {
				return nil
			}
		case MsgDetach:
			return nil
		}
	}
}

// Detach asks the simulation to end the session.
func (c *Client) Detach() error { return Write(c.conn, &Message{Type: MsgDetach}) }
