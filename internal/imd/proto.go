// Package imd implements Interactive Molecular Dynamics: the bi-directional
// wire protocol between a running simulation and a visualizer (or haptic
// device), the simulation- and client-side session drivers, and a
// discrete-event model of session timing under different network QoS
// profiles.
//
// The paper's §III describes the interaction pattern: the simulation
// streams coordinate frames to the visualizer; the user, via the
// visualizer or a haptic device, sends forces back that the simulation
// applies on the next step. The exchange is synchronous in interactive
// mode — which is exactly why "a general purpose network is not
// acceptable": time the simulation spends waiting on the network is time
// 256 processors of a supercomputer sit idle.
package imd

import (
	"encoding/binary"
	"fmt"
	"io"
)

// MsgType discriminates protocol messages.
type MsgType byte

// Protocol message types.
const (
	// MsgHandshake opens a session: sim → client, carries atom count.
	MsgHandshake MsgType = iota + 1
	// MsgFrame carries one coordinate frame: sim → client.
	MsgFrame
	// MsgForce applies a force to one atom: client → sim.
	MsgForce
	// MsgAck acknowledges a frame with no force input: client → sim.
	MsgAck
	// MsgPause suspends stepping: client → sim.
	MsgPause
	// MsgResume resumes stepping: client → sim.
	MsgResume
	// MsgDetach ends the session: either direction.
	MsgDetach
	// MsgEnergy carries the energy readout: sim → client.
	MsgEnergy
)

// String implements fmt.Stringer.
func (m MsgType) String() string {
	switch m {
	case MsgHandshake:
		return "handshake"
	case MsgFrame:
		return "frame"
	case MsgForce:
		return "force"
	case MsgAck:
		return "ack"
	case MsgPause:
		return "pause"
	case MsgResume:
		return "resume"
	case MsgDetach:
		return "detach"
	case MsgEnergy:
		return "energy"
	default:
		return fmt.Sprintf("msgtype(%d)", byte(m))
	}
}

// Message is one protocol message. Fields are used according to Type:
// Handshake uses NAtoms; Frame uses Step/Time/Coords; Force uses
// Atom/FX/FY/FZ; Energy uses Time and FX (as the energy value).
type Message struct {
	Type   MsgType
	NAtoms int32
	Step   int64
	Time   float64
	Coords []float32 // xyz triplets; len = 3·natoms
	Atom   int32
	FX     float64
	FY     float64
	FZ     float64
}

// maxAtoms bounds decodable frame sizes (defends against corrupt streams).
const maxAtoms = 1 << 24

// Write encodes m to w. The encoding is little-endian with a one-byte
// type tag, mirroring the lean custom protocol the RealityGrid steering
// library used in place of heavyweight grid service calls on the fast
// path.
func Write(w io.Writer, m *Message) error {
	if err := binary.Write(w, binary.LittleEndian, m.Type); err != nil {
		return err
	}
	switch m.Type {
	case MsgHandshake:
		return binary.Write(w, binary.LittleEndian, m.NAtoms)
	case MsgFrame:
		if err := binary.Write(w, binary.LittleEndian, m.Step); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, m.Time); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, int32(len(m.Coords))); err != nil {
			return err
		}
		return binary.Write(w, binary.LittleEndian, m.Coords)
	case MsgForce:
		for _, v := range []any{m.Atom, m.FX, m.FY, m.FZ} {
			if err := binary.Write(w, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	case MsgEnergy:
		if err := binary.Write(w, binary.LittleEndian, m.Time); err != nil {
			return err
		}
		return binary.Write(w, binary.LittleEndian, m.FX)
	case MsgAck, MsgPause, MsgResume, MsgDetach:
		return nil
	default:
		return fmt.Errorf("imd: cannot encode message type %v", m.Type)
	}
}

// Read decodes the next message from r.
func Read(r io.Reader) (*Message, error) {
	var t MsgType
	if err := binary.Read(r, binary.LittleEndian, &t); err != nil {
		return nil, err
	}
	m := &Message{Type: t}
	switch t {
	case MsgHandshake:
		if err := binary.Read(r, binary.LittleEndian, &m.NAtoms); err != nil {
			return nil, unexpected(err)
		}
		if m.NAtoms < 0 || m.NAtoms > maxAtoms {
			return nil, fmt.Errorf("imd: implausible atom count %d", m.NAtoms)
		}
		return m, nil
	case MsgFrame:
		if err := binary.Read(r, binary.LittleEndian, &m.Step); err != nil {
			return nil, unexpected(err)
		}
		if err := binary.Read(r, binary.LittleEndian, &m.Time); err != nil {
			return nil, unexpected(err)
		}
		var n int32
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return nil, unexpected(err)
		}
		if n < 0 || n > 3*maxAtoms {
			return nil, fmt.Errorf("imd: implausible coord count %d", n)
		}
		// Decoded in chunks, a frame costs the memory its bytes fill, not its claim.
		const coordChunk = 4096
		m.Coords = make([]float32, 0, min(int(n), coordChunk))
		for len(m.Coords) < int(n) {
			chunk := make([]float32, min(int(n)-len(m.Coords), coordChunk))
			if err := binary.Read(r, binary.LittleEndian, chunk); err != nil {
				return nil, unexpected(err)
			}
			m.Coords = append(m.Coords, chunk...)
		}
		return m, nil
	case MsgForce:
		if err := binary.Read(r, binary.LittleEndian, &m.Atom); err != nil {
			return nil, unexpected(err)
		}
		for _, p := range []*float64{&m.FX, &m.FY, &m.FZ} {
			if err := binary.Read(r, binary.LittleEndian, p); err != nil {
				return nil, unexpected(err)
			}
		}
		return m, nil
	case MsgEnergy:
		if err := binary.Read(r, binary.LittleEndian, &m.Time); err != nil {
			return nil, unexpected(err)
		}
		if err := binary.Read(r, binary.LittleEndian, &m.FX); err != nil {
			return nil, unexpected(err)
		}
		return m, nil
	case MsgAck, MsgPause, MsgResume, MsgDetach:
		return m, nil
	default:
		return nil, fmt.Errorf("imd: unknown message type %d", byte(t))
	}
}

func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// FrameBytes returns the wire size of a frame for natoms atoms — used by
// the QoS delay model to account for serialization time.
func FrameBytes(natoms int) int { return 1 + 8 + 8 + 4 + 12*natoms }

// ForceBytes is the wire size of a force message.
const ForceBytes = 1 + 4 + 24
