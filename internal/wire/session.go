package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// ErrRefused reports a hello the peer answered with an error or a grant
// this end cannot speak: the ends disagree about the protocol, so
// re-dialing is futile.
var ErrRefused = errors.New("wire: hello refused")

// refusedUnversioned answers a hello that offers no version: a peer
// still speaking the retired JSON-lines protocol.
const refusedUnversioned = "wire: hello offers no version; v1 is required"

// Session is one end of an established connection: the Codec positioned
// at the first framed byte, the worker's Name and Site, and the System
// payload the grant carried.
type Session struct {
	*Codec
	// Name and Site identify the worker end. Accept defaults an empty Site
	// to Name: an unconfigured worker is its own one-machine site.
	Name, Site string
	// System is the coordinator's opaque payload, plain on the grant line.
	System []byte
}

// Accept serves the coordinator half of the hello exchange: it reads the
// worker's hello line from r and writes the grant line carrying system
// to w. Every grant is the same — v1 with delta checkpoints and
// compression — and goes to any hello offering v1 or newer (the offer
// is the newest version the worker speaks). A first line that is not a
// hello, or a hello offering no version, is answered with one JSON error
// line and returned as an error. The hello is read as a raw line (a
// json.Decoder buffers past the value), so the Codec starts at exactly
// the byte after its newline.
func Accept(r io.Reader, w io.Writer, system []byte) (*Session, error) {
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
	if hello.Wire < V1 {
		_ = writeLine(w, &Response{Type: MsgOK, Err: refusedUnversioned})
		return nil, errors.New(refusedUnversioned)
	}
	grant := &Response{Type: MsgOK, System: JSONPayload(system), Wire: V1, Delta: true, Comp: true}
	if err := writeLine(w, grant); err != nil {
		return nil, err
	}
	s := &Session{Codec: NewCodec(V1, br, w, true), Name: hello.Name, Site: hello.Site}
	if s.Site == "" {
		s.Site = s.Name
	}
	return s, nil
}

// Open performs the worker half: it writes a hello offering v1 to w and
// reads the grant from r. A refusal, or any grant but v1 with delta
// checkpoints and compression, is returned wrapped in ErrRefused.
func Open(r io.Reader, w io.Writer, name, site string) (*Session, error) {
	if err := writeLine(w, &Request{Type: MsgHello, Name: name, Site: site, Wire: V1}); err != nil {
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
	if grant.Wire != V1 || !grant.Delta || !grant.Comp {
		return nil, fmt.Errorf("%w: granted wire %d (delta %v, compression %v), want v1 with both",
			ErrRefused, grant.Wire, grant.Delta, grant.Comp)
	}
	system, err := grant.System.Resolve(nil)
	if err != nil {
		return nil, fmt.Errorf("system payload: %w", err)
	}
	return &Session{Codec: NewCodec(V1, br, w, true), Name: name, Site: site, System: system}, nil
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
// when a base exists, else compressed (plain when that does not pay).
func (s *Session) Pack(base, raw []byte) *Payload {
	return Delta(base, raw)
}
