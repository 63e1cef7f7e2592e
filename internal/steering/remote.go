package steering

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"

	"spice/internal/netutil"
	"spice/internal/trace"
)

// The remote bridge carries steering commands over TCP so a steerer on
// the scientist's workstation can control a simulation on a remote grid
// resource — the role the intermediate grid services play in the paper's
// Fig. 2a. The wire format is JSON-lines: one request object per line,
// one response object per line, ordered.

// wireRequest is the on-the-wire command.
type wireRequest struct {
	Cmd   string `json:"cmd"`
	Key   string `json:"key,omitempty"`
	Value string `json:"value,omitempty"`
	Seed  uint64 `json:"seed,omitempty"`
}

// wireResponse is the on-the-wire reply.
type wireResponse struct {
	OK         bool              `json:"ok"`
	Err        string            `json:"err,omitempty"`
	Status     map[string]string `json:"status,omitempty"`
	Checkpoint []byte            `json:"checkpoint,omitempty"` // trace encoding
	CloneName  string            `json:"cloneName,omitempty"`
}

// ControlServer bridges a listener to a steered simulation. Clones
// created through the bridge are registered in the registry (if given)
// and retained so they are not garbage collected mid-experiment.
type ControlServer struct {
	Target   *Steered
	Registry *Registry

	mu     sync.Mutex
	clones []*Steered
}

// NewControlServer wraps target.
func NewControlServer(target *Steered, reg *Registry) *ControlServer {
	return &ControlServer{Target: target, Registry: reg}
}

// Clones returns the simulations cloned through this bridge.
func (cs *ControlServer) Clones() []*Steered {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return append([]*Steered(nil), cs.clones...)
}

// ServeContext accepts steering connections until ctx is cancelled.
// Each connection is served on its own goroutine; commands from
// concurrent steerers interleave at step boundaries. On cancel the
// listener and every live steering connection are closed, and the call
// waits for all connection handlers to return before reporting
// netutil.ErrServerClosed.
func (cs *ControlServer) ServeContext(ctx context.Context, ln net.Listener) error {
	return netutil.Serve(ctx, ln, func(conn net.Conn) {
		_ = cs.serveConn(conn)
	})
}

// ServeConn handles one steering connection synchronously (exported for
// in-process tests and single-connection setups).
func (cs *ControlServer) ServeConn(conn net.Conn) error { return cs.serveConn(conn) }

func (cs *ControlServer) serveConn(conn net.Conn) error {
	dec := json.NewDecoder(bufio.NewReader(conn))
	enc := json.NewEncoder(conn)
	for {
		var req wireRequest
		if err := dec.Decode(&req); err != nil {
			return err // EOF on clean disconnect
		}
		resp := cs.handle(req)
		if err := enc.Encode(&resp); err != nil {
			return err
		}
		if req.Cmd == "stop" && resp.OK {
			return nil
		}
	}
}

func (cs *ControlServer) handle(req wireRequest) wireResponse {
	ct := slices.Index(commandNames[:], req.Cmd)
	if ct < 0 {
		return wireResponse{Err: fmt.Sprintf("unknown command %q", req.Cmd)}
	}
	r := cs.Target.send(Command{Type: CommandType(ct), Key: req.Key, Value: req.Value, Seed: req.Seed})
	if r.Err != "" {
		return wireResponse{Err: r.Err}
	}
	out := wireResponse{OK: true, Status: r.Status}
	if r.Checkpoint != nil {
		var buf bytes.Buffer
		if err := trace.WriteCheckpoint(&buf, r.Checkpoint); err != nil {
			return wireResponse{Err: "checkpoint encode: " + err.Error()}
		}
		out.Checkpoint = buf.Bytes()
	}
	if r.Clone != nil {
		cs.mu.Lock()
		cs.clones = append(cs.clones, r.Clone)
		cs.mu.Unlock()
		if cs.Registry != nil {
			_ = cs.Registry.Register(ServiceInfo{Name: r.Clone.Name, Kind: KindSimulation})
		}
		out.CloneName = r.Clone.Name
	}
	return out
}

// RemoteSteerer is the client side of the bridge.
type RemoteSteerer struct {
	conn net.Conn
	dec  *json.Decoder
	enc  *json.Encoder
	mu   sync.Mutex
}

// Dial connects to a ControlServer.
func Dial(addr string) (*RemoteSteerer, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewRemoteSteerer(conn), nil
}

// NewRemoteSteerer wraps an established connection.
func NewRemoteSteerer(conn net.Conn) *RemoteSteerer {
	return &RemoteSteerer{
		conn: conn,
		dec:  json.NewDecoder(bufio.NewReader(conn)),
		enc:  json.NewEncoder(conn),
	}
}

// Close releases the connection.
func (rs *RemoteSteerer) Close() error { return rs.conn.Close() }

func (rs *RemoteSteerer) roundTrip(req wireRequest) (wireResponse, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if err := rs.enc.Encode(&req); err != nil {
		return wireResponse{}, err
	}
	var resp wireResponse
	if err := rs.dec.Decode(&resp); err != nil {
		return wireResponse{}, err
	}
	if resp.Err != "" {
		return resp, errors.New(resp.Err)
	}
	return resp, nil
}

// Pause suspends the remote simulation.
func (rs *RemoteSteerer) Pause() error { _, err := rs.roundTrip(wireRequest{Cmd: "pause"}); return err }

// Resume continues the remote simulation.
func (rs *RemoteSteerer) Resume() error {
	_, err := rs.roundTrip(wireRequest{Cmd: "resume"})
	return err
}

// Stop ends the remote run loop.
func (rs *RemoteSteerer) Stop() error { _, err := rs.roundTrip(wireRequest{Cmd: "stop"}); return err }

// SetParam changes a steerable parameter remotely.
func (rs *RemoteSteerer) SetParam(key, value string) error {
	_, err := rs.roundTrip(wireRequest{Cmd: "set-param", Key: key, Value: value})
	return err
}

// Status fetches the live status readout.
func (rs *RemoteSteerer) Status() (map[string]string, error) {
	resp, err := rs.roundTrip(wireRequest{Cmd: "status"})
	if err != nil {
		return nil, err
	}
	return resp.Status, nil
}

// Checkpoint retrieves a restartable snapshot over the wire.
func (rs *RemoteSteerer) Checkpoint() (*trace.Checkpoint, error) {
	resp, err := rs.roundTrip(wireRequest{Cmd: "checkpoint"})
	if err != nil {
		return nil, err
	}
	return trace.ReadCheckpoint(bytes.NewReader(resp.Checkpoint))
}

// Clone duplicates the remote simulation; the clone lives on the server
// side (registered in its registry) and its name is returned.
func (rs *RemoteSteerer) Clone(name string, seed uint64) (string, error) {
	resp, err := rs.roundTrip(wireRequest{Cmd: "clone", Key: name, Seed: seed})
	if err != nil {
		return "", err
	}
	return resp.CloneName, nil
}
