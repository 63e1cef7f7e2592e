package steering

import (
	"context"
	"errors"
	"net"
	"strconv"
	"testing"
	"time"

	"spice/internal/netutil"
)

// bridge serves s through a ControlServer over an in-memory duplex
// connection and returns the server and the client end of the wire.
func bridge(t *testing.T, s *Steered, reg *Registry) (*ControlServer, *RemoteSteerer) {
	t.Helper()
	cs := NewControlServer(s, reg)
	clientConn, serverConn := net.Pipe()
	go func() { _ = cs.ServeConn(serverConn) }()
	rs := NewRemoteSteerer(clientConn)
	t.Cleanup(func() { rs.Close(); serverConn.Close() })
	return cs, rs
}

// remotePair bridges a steered simulation with one "bias" parameter and
// starts it.
func remotePair(t *testing.T, seed uint64) (*ControlServer, *RemoteSteerer, *Registry, chan int) {
	t.Helper()
	reg := NewRegistry()
	s := NewSteered("remote-sim", testEngine(t, seed))
	s.OnParam("bias", func(v string) error {
		_, err := strconv.ParseFloat(v, 64)
		return err
	})
	cs, rs := bridge(t, s, reg)
	return cs, rs, reg, runSteered(s, 1<<30)
}

func TestRemotePauseStatusResumeStop(t *testing.T) {
	_, rs, _, done := remotePair(t, 41)
	if err := rs.Pause(); err != nil {
		t.Fatal(err)
	}
	st, err := rs.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st["paused"] != "true" || st["name"] != "remote-sim" {
		t.Fatalf("status = %v", st)
	}
	if err := rs.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := rs.Stop(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("simulation did not stop")
	}
}

func TestRemoteSetParam(t *testing.T) {
	_, rs, _, done := remotePair(t, 42)
	if err := rs.SetParam("bias", "2.5"); err != nil {
		t.Fatal(err)
	}
	if err := rs.SetParam("bias", "junk"); err == nil {
		t.Fatal("handler error not propagated over the wire")
	}
	if err := rs.SetParam("missing", "1"); err == nil {
		t.Fatal("unknown param accepted over the wire")
	}
	_ = rs.Stop()
	<-done
}

func TestRemoteCheckpointRoundTrip(t *testing.T) {
	_, rs, _, done := remotePair(t, 43)
	ck, err := rs.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Pos) != 5 || len(ck.Vel) != 5 {
		t.Fatalf("checkpoint has %d atoms", len(ck.Pos))
	}
	_ = rs.Stop()
	<-done
}

func TestRemoteCloneRegisters(t *testing.T) {
	cs, rs, reg, done := remotePair(t, 44)
	name, err := rs.Clone("remote-clone", 77)
	if err != nil {
		t.Fatal(err)
	}
	if name != "remote-clone" {
		t.Fatalf("clone name = %q", name)
	}
	if _, ok := reg.Lookup("remote-clone"); !ok {
		t.Fatal("clone not registered")
	}
	clones := cs.Clones()
	if len(clones) != 1 || clones[0].Name != "remote-clone" {
		t.Fatalf("server retained %v", clones)
	}
	// The clone is runnable server-side.
	if ran := clones[0].Run(10); ran != 10 {
		t.Fatalf("clone ran %d steps", ran)
	}
	_ = rs.Stop()
	<-done
}

func TestRemoteUnknownCommand(t *testing.T) {
	_, rs, _, done := remotePair(t, 45)
	if _, err := rs.roundTrip(wireRequest{Cmd: "explode"}); err == nil {
		t.Fatal("unknown command accepted")
	}
	_ = rs.Stop()
	<-done
}

func TestControlServerOverTCP(t *testing.T) {
	reg := NewRegistry()
	s := NewSteered("tcp-sim", testEngine(t, 46))
	cs := NewControlServer(s, reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- cs.ServeContext(ctx, ln) }()
	done := make(chan int, 1)
	go func() { done <- s.Run(1 << 30) }()

	rs, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	st, err := rs.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st["name"] != "tcp-sim" {
		t.Fatalf("status over TCP: %v", st)
	}
	if err := rs.Stop(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stop over TCP did not land")
	}

	// Graceful shutdown: cancelling the context must close the bridge
	// and return without leaking the accept loop or connection handlers.
	cancel()
	select {
	case err := <-served:
		if !errors.Is(err, netutil.ErrServerClosed) {
			t.Fatalf("ServeContext returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeContext did not return after cancel")
	}
}
