package steering

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"spice/internal/forcefield"
	"spice/internal/md"
	"spice/internal/topology"
	"spice/internal/vec"
)

func testEngine(t *testing.T, seed uint64) *md.Engine {
	t.Helper()
	top := topology.New()
	p := topology.DefaultDNA(5)
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

func TestRegistryCRUD(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(ServiceInfo{Name: ""}); err == nil {
		t.Fatal("nameless service accepted")
	}
	_ = r.Register(ServiceInfo{Name: "sim1", Kind: KindSimulation, Addr: "host:1"})
	_ = r.Register(ServiceInfo{Name: "viz1", Kind: KindVisualizer, Addr: "host:2"})
	_ = r.Register(ServiceInfo{Name: "haptic1", Kind: KindInstrument, Addr: "host:3"})
	for name, want := range map[string]ServiceInfo{
		"sim1":    {Name: "sim1", Kind: KindSimulation, Addr: "host:1"},
		"viz1":    {Name: "viz1", Kind: KindVisualizer, Addr: "host:2"},
		"haptic1": {Name: "haptic1", Kind: KindInstrument, Addr: "host:3"},
	} {
		info, ok := r.Lookup(name)
		if !ok || info.Kind != want.Kind || info.Addr != want.Addr {
			t.Fatalf("lookup %s = %+v, %v", name, info, ok)
		}
	}
	if _, ok := r.Lookup("absent"); ok {
		t.Fatal("lookup of an unregistered name succeeded")
	}
	// Replace semantics.
	_ = r.Register(ServiceInfo{Name: "viz1", Kind: KindVisualizer, Addr: "host:99"})
	info, _ := r.Lookup("viz1")
	if info.Addr != "host:99" {
		t.Fatal("re-register did not replace")
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				name := fmt.Sprintf("svc-%d-%d", i, j)
				_ = r.Register(ServiceInfo{Name: name, Kind: KindSimulation})
				r.Lookup(name)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		for j := 0; j < 100; j++ {
			if _, ok := r.Lookup(fmt.Sprintf("svc-%d-%d", i, j)); !ok {
				t.Fatalf("svc-%d-%d lost", i, j)
			}
		}
	}
}

// runSteered runs s.Run in a goroutine and returns a done channel.
func runSteered(s *Steered, steps int) chan int {
	done := make(chan int, 1)
	go func() { done <- s.Run(steps) }()
	return done
}

func TestPauseResumeStop(t *testing.T) {
	s := NewSteered("sim", testEngine(t, 1))
	_, st := bridge(t, s, nil)
	done := runSteered(s, 1<<30)

	if err := st.Pause(); err != nil {
		t.Fatal(err)
	}
	status, err := st.Status()
	if err != nil {
		t.Fatal(err)
	}
	if status["paused"] != "true" {
		t.Fatalf("status = %v", status)
	}
	stepAtPause, _ := strconv.ParseInt(status["step"], 10, 64)
	// While paused the step count must not advance.
	status2, _ := st.Status()
	stepLater, _ := strconv.ParseInt(status2["step"], 10, 64)
	if stepLater != stepAtPause {
		t.Fatalf("stepped while paused: %d -> %d", stepAtPause, stepLater)
	}
	if err := st.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := st.Stop(); err != nil {
		t.Fatal(err)
	}
	ran := <-done
	if ran < 1 {
		t.Fatalf("ran = %d steps", ran)
	}
}

func TestRunCompletesWithoutCommands(t *testing.T) {
	s := NewSteered("sim", testEngine(t, 2))
	if got := s.Run(25); got != 25 {
		t.Fatalf("ran %d, want 25", got)
	}
	if s.StepsRun != 25 {
		t.Fatalf("StepsRun = %d", s.StepsRun)
	}
	if s.Eng.State().Step != 25 {
		t.Fatalf("engine step = %d", s.Eng.State().Step)
	}
}

func TestSetParam(t *testing.T) {
	eng := testEngine(t, 3)
	s := NewSteered("sim", eng)
	var gotValue string
	s.OnParam("pull-force", func(v string) error {
		gotValue = v
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return err
		}
		eng.External.Set(0, vec.V{Z: f})
		return nil
	})
	_, st := bridge(t, s, nil)
	done := runSteered(s, 1<<30)
	if err := st.SetParam("pull-force", "2.5"); err != nil {
		t.Fatal(err)
	}
	if gotValue != "2.5" {
		t.Fatalf("handler saw %q", gotValue)
	}
	_ = st.Stop()
	<-done
}

// TestCheckpointViaSteerer: a checkpoint taken while paused is the
// state the status readout reports (commands land at step boundaries),
// and a stop ends the run without a resume.
func TestCheckpointViaSteerer(t *testing.T) {
	s := NewSteered("sim", testEngine(t, 4))
	_, st := bridge(t, s, nil)
	done := runSteered(s, 1<<30)
	if err := st.Pause(); err != nil {
		t.Fatal(err)
	}
	status, err := st.Status()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := st.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Pos) != 5 {
		t.Fatalf("checkpoint atoms = %d", len(ck.Pos))
	}
	if step := strconv.FormatInt(ck.Step, 10); step != status["step"] {
		t.Fatalf("paused checkpoint at step %s, status says %s", step, status["step"])
	}
	_ = st.Stop()
	<-done
}

func TestCloneDoesNotPerturbOriginal(t *testing.T) {
	s := NewSteered("sim", testEngine(t, 5))
	cs, st := bridge(t, s, nil)
	done := runSteered(s, 1<<30)
	name, err := st.Clone("sim-clone", 77)
	if err != nil {
		t.Fatal(err)
	}
	_ = st.Stop()
	<-done

	if name != "sim-clone" {
		t.Fatalf("clone name = %q", name)
	}
	clone := cs.Clones()[0]
	origStep := s.Eng.State().Step
	// Run the clone independently; the original must not move.
	clone.Run(100)
	if s.Eng.State().Step != origStep {
		t.Fatal("running the clone advanced the original")
	}
	if clone.Eng.State().Step <= 0 {
		t.Fatal("clone did not run")
	}
}

func TestCloneDefaultName(t *testing.T) {
	s := NewSteered("sim", testEngine(t, 6))
	cs, st := bridge(t, s, nil)
	done := runSteered(s, 1<<30)
	name, err := st.Clone("", 1)
	if err != nil {
		t.Fatal(err)
	}
	if name != "sim-clone" || cs.Clones()[0].Name != "sim-clone" {
		t.Fatalf("default clone name = %q", name)
	}
	_ = st.Stop()
	<-done
}

func TestKindAndCommandStrings(t *testing.T) {
	if KindSimulation.String() != "simulation" || KindVisualizer.String() != "visualizer" || KindInstrument.String() != "instrument" {
		t.Fatal("kind labels")
	}
	for c, want := range map[CommandType]string{
		CmdPause: "pause", CmdResume: "resume", CmdStop: "stop",
		CmdSetParam: "set-param", CmdStatus: "status",
		CmdCheckpoint: "checkpoint", CmdClone: "clone",
	} {
		if c.String() != want {
			t.Fatalf("%d -> %q, want %q", int(c), c.String(), want)
		}
	}
}
