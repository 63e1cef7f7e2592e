// Package steering reproduces the role of the RealityGrid computational
// steering framework (Fig. 2 of the paper): a registry through which
// components find each other, a control-message protocol carrying
// pause/resume/parameter-change/checkpoint/clone commands from steerers to
// running simulations, and the simulation-side loop that services those
// commands between MD steps.
//
// The data path (coordinate frames, steering forces) is package imd; this
// package is the control path, which in the original architecture flowed
// through intermediate grid services. Commands are serviced at step
// boundaries, so a steered simulation never observes a torn state.
package steering

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"spice/internal/md"
	"spice/internal/obs"
	"spice/internal/trace"
)

// Kind classifies registered services.
type Kind int

// Service kinds, mirroring the component boxes of the paper's Fig. 2a.
const (
	KindSimulation Kind = iota
	KindVisualizer
	KindInstrument // haptic devices: "just additional computing resources"
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSimulation:
		return "simulation"
	case KindVisualizer:
		return "visualizer"
	case KindInstrument:
		return "instrument"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ServiceInfo describes one registered component.
type ServiceInfo struct {
	Name string
	Kind Kind
	// Addr is the data-channel address (host:port for IMD).
	Addr string
	// Meta carries free-form attributes (site, machine, procs...).
	Meta map[string]string
}

// Registry is the service directory. It is safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	services map[string]ServiceInfo
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{services: make(map[string]ServiceInfo)}
}

// Register adds or replaces a service entry.
func (r *Registry) Register(info ServiceInfo) error {
	if info.Name == "" {
		return errors.New("steering: service needs a name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.services[info.Name] = info
	return nil
}

// Lookup finds a service by name.
func (r *Registry) Lookup(name string) (ServiceInfo, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	info, ok := r.services[name]
	return info, ok
}

// CommandType enumerates steering commands.
type CommandType int

// Steering commands.
const (
	CmdPause CommandType = iota
	CmdResume
	CmdStop
	CmdSetParam
	CmdStatus
	CmdCheckpoint
	CmdClone
)

// commandNames are the commands' wire and event names, indexed by
// CommandType.
var commandNames = [...]string{"pause", "resume", "stop", "set-param", "status", "checkpoint", "clone"}

// String implements fmt.Stringer.
func (c CommandType) String() string {
	if c >= 0 && int(c) < len(commandNames) {
		return commandNames[c]
	}
	return fmt.Sprintf("cmd(%d)", int(c))
}

// Command is one steering request. Reply must be buffered (capacity >= 1).
type Command struct {
	Type  CommandType
	Key   string // SetParam: parameter name; Clone: new sim name
	Value string // SetParam: value
	Seed  uint64 // Clone: RNG seed for the clone
	Reply chan Response
}

// Response is the result of a command.
type Response struct {
	OK         bool
	Err        string
	Status     map[string]string
	Checkpoint *trace.Checkpoint
	Clone      *Steered
}

// ParamHandler applies a steered parameter change; it runs between MD
// steps, so it may mutate engine terms safely.
type ParamHandler func(value string) error

// Steered wraps an engine with a steering control loop.
type Steered struct {
	Name string
	Eng  *md.Engine

	// Events, when set, receives one structured "steer_cmd" event per
	// serviced command — the control-path audit trail the paper's §V
	// diagnoses leaned on. Emission is nil-safe, so leaving it unset
	// costs nothing. Clones inherit the log.
	Events *obs.EventLog

	cmds   chan Command
	params map[string]ParamHandler
	paused bool
	stop   bool

	// StepsRun counts MD steps executed through this wrapper.
	StepsRun int
}

// NewSteered wraps eng.
func NewSteered(name string, eng *md.Engine) *Steered {
	return &Steered{
		Name:   name,
		Eng:    eng,
		cmds:   make(chan Command, 16),
		params: make(map[string]ParamHandler),
	}
}

// OnParam registers a steerable parameter.
func (s *Steered) OnParam(name string, h ParamHandler) { s.params[name] = h }

// send issues a command and waits for the response; the control
// server calls it once per wire request.
func (s *Steered) send(c Command) Response {
	c.Reply = make(chan Response, 1)
	s.cmds <- c
	return <-c.Reply
}

// Run executes up to maxSteps MD steps, servicing steering commands at
// step boundaries. It returns early on CmdStop. While paused it blocks on
// the command channel (consuming no CPU — the expensive processors are
// released conceptually; the paper checkpoints instead for long pauses).
func (s *Steered) Run(maxSteps int) int {
	ran := 0
	for ran < maxSteps && !s.stop {
		// Service everything pending; block while paused. A stop ends
		// the run even while paused.
		for !s.stop {
			if s.paused {
				cmd, ok := <-s.cmds
				if !ok {
					return ran
				}
				s.handle(cmd)
				continue
			}
			select {
			case cmd, ok := <-s.cmds:
				if !ok {
					return ran
				}
				s.handle(cmd)
				continue
			default:
			}
			break
		}
		if s.stop {
			break
		}
		s.Eng.Step()
		s.StepsRun++
		ran++
	}
	return ran
}

func (s *Steered) handle(c Command) {
	resp := Response{OK: true}
	defer func() {
		if s.Events == nil {
			return
		}
		ev := obs.Event{Name: "steer_cmd", Fields: map[string]any{
			"sim": s.Name, "cmd": c.Type.String(),
		}}
		if c.Key != "" {
			ev.Fields["key"] = c.Key
		}
		if resp.Err != "" {
			ev.Fields["error"] = resp.Err
		}
		s.Events.Emit(ev)
	}()
	switch c.Type {
	case CmdPause:
		s.paused = true
	case CmdResume:
		s.paused = false
	case CmdStop:
		s.stop = true
	case CmdSetParam:
		h, ok := s.params[c.Key]
		if !ok {
			resp = Response{Err: fmt.Sprintf("unknown parameter %q", c.Key)}
		} else if err := h(c.Value); err != nil {
			resp = Response{Err: err.Error()}
		}
	case CmdStatus:
		st := s.Eng.State()
		resp.Status = map[string]string{
			"name":   s.Name,
			"step":   strconv.FormatInt(st.Step, 10),
			"time":   strconv.FormatFloat(st.Time, 'g', -1, 64),
			"epot":   strconv.FormatFloat(s.Eng.PotentialEnergy(), 'g', -1, 64),
			"temp":   strconv.FormatFloat(st.Temperature(), 'g', -1, 64),
			"paused": strconv.FormatBool(s.paused),
		}
	case CmdCheckpoint:
		resp.Checkpoint = s.Eng.Checkpoint()
	case CmdClone:
		eng, err := s.Eng.Clone(c.Seed)
		if err != nil {
			resp = Response{Err: err.Error()}
			break
		}
		name := c.Key
		if name == "" {
			name = s.Name + "-clone"
		}
		clone := NewSteered(name, eng)
		clone.Events = s.Events
		for k, h := range s.params {
			clone.params[k] = h
		}
		resp.Clone = clone
	default:
		resp = Response{Err: fmt.Sprintf("unknown command %v", c.Type)}
	}
	if c.Reply != nil {
		c.Reply <- resp
	}
}
