package steering

import (
	"testing"

	"spice/internal/obs"
)

// TestSteerCmdEvents: every serviced command leaves one structured
// steer_cmd event, errors included, and clones inherit the log.
func TestSteerCmdEvents(t *testing.T) {
	eng := testEngine(t, 1)
	s := NewSteered("sim0", eng)
	ev := obs.NewEventLog(nil, 64)
	s.Events = ev

	cs, st := bridge(t, s, nil)
	// Effectively unbounded: CmdStop is the only way out, so the
	// control loop is guaranteed alive for every command below.
	runDone := runSteered(s, 1<<40)
	if err := st.Pause(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Status(); err != nil {
		t.Fatal(err)
	}
	if err := st.SetParam("no-such-param", "1"); err == nil {
		t.Fatal("unknown parameter accepted")
	}
	if _, err := st.Clone("sim0-c", 99); err != nil {
		t.Fatal(err)
	}
	if cs.Clones()[0].Events != ev {
		t.Fatal("clone did not inherit the event log")
	}
	if err := st.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := st.Stop(); err != nil {
		t.Fatal(err)
	}
	<-runDone

	if n := ev.Count("steer_cmd"); n != 6 {
		t.Fatalf("recorded %d steer_cmd events, want 6", n)
	}
	var sawErr, sawClone bool
	for _, e := range ev.Recent(64) {
		if e.Name != "steer_cmd" {
			continue
		}
		if e.Fields["sim"] != "sim0" {
			t.Fatalf("event names sim %v, want sim0", e.Fields["sim"])
		}
		switch e.Fields["cmd"] {
		case "set-param":
			if s, _ := e.Fields["error"].(string); s != "" {
				sawErr = true
			}
		case "clone":
			sawClone = true
		}
	}
	if !sawErr {
		t.Fatal("failed set-param left no error field in its event")
	}
	if !sawClone {
		t.Fatal("clone command left no event")
	}
}
