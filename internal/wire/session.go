package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// ErrRefused reports a hello the peer answered with an error instead of
// a grant: the ends disagree about the protocol, so re-dialing is futile.
var ErrRefused = errors.New("wire: hello refused")

// Session is one end of a negotiated connection. Going into Accept or
// Open it states what this end will speak: the newest Version, whether
// Delta checkpoints and Comp(ression) are allowed, and the worker's Name
// and Site (Open) or the System payload to hand out (Accept). Coming
// back it states what the ends agreed on, with the Codec (nil going in)
// at the first framed byte. Delta and Comp are never set on a v0 session.
type Session struct {
	Codec
	// Name and Site identify the worker end. Accept defaults an empty Site
	// to Name: an unconfigured worker is its own one-machine site.
	Name, Site  string
	Version     int
	Delta, Comp bool
	// System is the coordinator's opaque payload, plain on the grant line.
	System []byte
	// Offered is the version the worker's hello asked for (Accept only);
	// Downgraded marks one newer than MaxVersion, which is served on V0.
	Offered    int
	Downgraded bool
}

// Accept serves the coordinator half of the hello exchange: it reads the
// worker's hello line from r, negotiates against local, and writes the
// grant line carrying local.System to w. A first line that is not a
// hello is answered with one JSON error line and returned as an error.
// The hello is read as a raw line (a json.Decoder buffers past the
// value), so the Codec starts at exactly the byte after its newline.
func Accept(r io.Reader, w io.Writer, local Session) (*Session, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	var hello Request
	if err := json.Unmarshal(line, &hello); err != nil || hello.Type != MsgHello {
		// The text predates this package and is what old workers print.
		_ = writeLine(w, &Response{Type: MsgOK, Err: "dist: expected hello"})
		return nil, errors.New("wire: first message is not a hello")
	}
	s := &Session{Name: hello.Name, Site: hello.Site, Offered: hello.Wire}
	if s.Site == "" {
		s.Site = s.Name
	}
	s.Version, s.Downgraded = Negotiate(local.Version, hello.Wire)
	s.Delta = s.Version >= V1 && local.Delta && !hello.NoDelta
	s.Comp = s.Version >= V1 && local.Comp && !hello.NoComp
	grant := &Response{Type: MsgOK, System: JSONPayload(local.System),
		Wire: s.Version, Delta: s.Delta, Comp: s.Comp}
	if err := writeLine(w, grant); err != nil {
		return nil, err
	}
	s.Codec = NewCodec(s.Version, br, w, s.Comp)
	return s, nil
}

// Open performs the worker half: it writes offer's hello line to w and
// reads the grant from r. A grant this end never offered or cannot speak
// is clamped to V0, the one version every peer speaks, rather than
// failing the fleet. A refusal is returned wrapped in ErrRefused.
func Open(r io.Reader, w io.Writer, offer Session) (*Session, error) {
	hello := &Request{Type: MsgHello, Name: offer.Name, Site: offer.Site,
		Wire: offer.Version, NoDelta: !offer.Delta, NoComp: !offer.Comp}
	if err := writeLine(w, hello); err != nil {
		return nil, err
	}
	br := bufio.NewReader(r)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	var grant Response
	if err := json.Unmarshal(line, &grant); err != nil {
		return nil, err
	}
	if grant.Err != "" {
		return nil, fmt.Errorf("%w: %s", ErrRefused, grant.Err)
	}
	s := &Session{Name: offer.Name, Site: offer.Site, Version: grant.Wire}
	if s.Version > offer.Version || s.Version > MaxVersion || s.Version < 0 {
		s.Version = V0
	}
	s.Delta = grant.Delta && s.Version >= V1
	s.Comp = grant.Comp && s.Version >= V1
	if s.System, err = grant.System.Resolve(nil); err != nil {
		return nil, fmt.Errorf("system payload: %w", err)
	}
	s.Codec = NewCodec(s.Version, br, w, s.Comp)
	return s, nil
}

func writeLine(w io.Writer, msg any) error {
	b, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// Pack is the payload-form rule: raw travels as a delta against base
// when deltas were granted and a base exists, else compressed when
// compression was granted, else plain.
func (s *Session) Pack(base, raw []byte) *Payload {
	switch {
	case s.Delta && len(base) > 0:
		return Delta(base, raw)
	case s.Comp:
		return Compress(raw)
	}
	return JSONPayload(raw)
}

// Carries reports whether p — possibly packed for an earlier session,
// before a reconnect renegotiated — can travel on this one: a v0 JSON
// line frames only plain payloads, and a delta needs the grant.
func (s *Session) Carries(p *Payload) bool {
	if p == nil || p.Flags == 0 {
		return true
	}
	return s.Version >= V1 && (s.Delta || !p.IsDelta())
}
