package wire

// The codec: what Accept and Open hand every message after the hello
// exchange to.
//
// v1 framing: every message is one CRC-checked internal/trace record.
// Inside a record:
//
//	[kind byte]              1 = Request, 2 = Response
//	[uvarint field bitmap]   bit i set ⇒ field i follows, in bit order
//	[fields...]
//
// Field encodings: strings and blobs are uvarint length + bytes; ints
// are uvarints; bools occupy no bytes (the bit is the value); payloads
// are [encoding byte][flags byte][uvarint len][data]. The message type
// travels as a small code (bit 0, always set). Job and Spec and WorkLog
// travel as JSON blobs — they are either tiny (Job) or bulk documents
// whose JSON form is the bit-identity contract (WorkLog samples), with
// lz compression applied to the bulk ones when the codec compresses.
// Unknown kinds, type codes, or bitmap bits are decode errors: v1 is
// strict, version skew belongs in the hello, not in silently-ignored
// fields.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"spice/internal/campaign"
	"spice/internal/trace"
)

// Codec frames protocol messages on an established connection, one
// trace record per message. msg is *Request or *Response; each side
// encodes one and decodes the other. A codec is safe for one concurrent
// encoder plus one concurrent decoder.
type Codec struct {
	emu      sync.Mutex
	rw       *trace.RecordWriter
	buf      []byte
	dmu      sync.Mutex
	rr       *trace.RecordReader
	compress bool
}

// NewCodec returns a codec speaking version, which is V1: the one
// framing there is. r must be the same buffered reader the hello line
// was read from — bytes it buffered past the newline belong to the
// first framed message. compress enables lz blocks on bulk payloads.
func NewCodec(version int, r io.Reader, w io.Writer, compress bool) *Codec {
	return &Codec{
		rr:       trace.NewRecordReader(r),
		rw:       trace.NewRecordWriter(w, false),
		compress: compress,
	}
}

// Message type codes for v1 frames.
var msgCodes = map[string]uint64{
	MsgHello: 1, MsgNext: 2, MsgBeat: 3, MsgProgress: 4,
	MsgResult: 5, MsgFail: 6, MsgOK: 7, MsgAssign: 8,
	MsgWait: 9, MsgDrained: 10, MsgAbandon: 11, MsgRetry: 12,
}

var msgNames = func() map[uint64]string {
	m := make(map[uint64]string, len(msgCodes))
	for name, code := range msgCodes {
		m[code] = name
	}
	return m
}()

// Frame kinds and field bit assignments. Bits outside each table are
// reserved and reject on decode. The hello and grant fields (Request.Wire,
// Response.System/Wire/Delta/Comp) travel only on the JSON lines before
// the first frame, so no frame carries them; the bits they once held
// (request 8–10, response 5 and 7–9) stay unassigned.
const (
	kindRequest  byte = 1
	kindResponse byte = 2
)

const (
	reqBitType = 1 << iota
	reqBitName
	reqBitSite
	reqBitJobID
	reqBitAttempt
	reqBitCkpt
	reqBitLog
	reqBitErr
	reqBitsKnown = reqBitType | reqBitName | reqBitSite | reqBitJobID |
		reqBitAttempt | reqBitCkpt | reqBitLog | reqBitErr
)

const (
	respBitType = 1 << iota
	respBitJob
	respBitResume
	respBitDelayMs
	respBitSpec
	_
	respBitErr
	_
	_
	_
	respBitNeedFull
	respBitsKnown = respBitType | respBitJob | respBitResume | respBitDelayMs |
		respBitSpec | respBitErr | respBitNeedFull
)

func (c *Codec) Encode(msg any) error {
	c.emu.Lock()
	defer c.emu.Unlock()
	var err error
	switch m := msg.(type) {
	case *Request:
		c.buf, err = appendRequest(c.buf[:0], m, c.compress)
	case *Response:
		c.buf, err = appendResponse(c.buf[:0], m, c.compress)
	default:
		err = fmt.Errorf("wire: cannot encode %T", msg)
	}
	if err != nil {
		return err
	}
	if err := c.rw.Append(c.buf); err != nil {
		return err
	}
	return c.rw.Flush()
}

func (c *Codec) Decode(msg any) error {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	rec, err := c.rr.Next()
	if err != nil {
		return err
	}
	switch m := msg.(type) {
	case *Request:
		return parseRequest(rec, m)
	case *Response:
		return parseResponse(rec, m)
	}
	return fmt.Errorf("wire: cannot decode into %T", msg)
}

func appendRequest(dst []byte, m *Request, compress bool) ([]byte, error) {
	code, ok := msgCodes[m.Type]
	if !ok {
		return nil, fmt.Errorf("wire: unknown message type %q", m.Type)
	}
	var bits uint64 = reqBitType
	if m.Name != "" {
		bits |= reqBitName
	}
	if m.Site != "" {
		bits |= reqBitSite
	}
	if m.JobID != "" {
		bits |= reqBitJobID
	}
	if m.Attempt != 0 {
		bits |= reqBitAttempt
	}
	if m.Ckpt != nil {
		bits |= reqBitCkpt
	}
	if m.Log != nil {
		bits |= reqBitLog
	}
	if m.Err != "" {
		bits |= reqBitErr
	}
	dst = append(dst, kindRequest)
	dst = binary.AppendUvarint(dst, bits)
	dst = binary.AppendUvarint(dst, code)
	dst = appendString(dst, m.Name)
	dst = appendString(dst, m.Site)
	dst = appendString(dst, m.JobID)
	if m.Attempt != 0 {
		dst = binary.AppendUvarint(dst, uint64(m.Attempt))
	}
	dst = appendPayload(dst, m.Ckpt)
	var err error
	if dst, err = appendJSONBlob(dst, m.Log, m.Log != nil, compress); err != nil {
		return nil, err
	}
	return appendString(dst, m.Err), nil
}

func parseRequest(rec []byte, m *Request) error {
	*m = Request{}
	d, bits, err := openFrame(rec, kindRequest, reqBitsKnown)
	if err != nil {
		return err
	}
	if m.Type, err = d.msgType(); err != nil {
		return err
	}
	if bits&reqBitName != 0 {
		m.Name, err = d.str()
	}
	if err == nil && bits&reqBitSite != 0 {
		m.Site, err = d.str()
	}
	if err == nil && bits&reqBitJobID != 0 {
		m.JobID, err = d.str()
	}
	if err == nil && bits&reqBitAttempt != 0 {
		m.Attempt, err = d.uint()
	}
	if err == nil && bits&reqBitCkpt != 0 {
		m.Ckpt, err = d.payload()
	}
	if err == nil && bits&reqBitLog != 0 {
		m.Log = &trace.WorkLog{}
		err = d.jsonBlob(m.Log)
	}
	if err == nil && bits&reqBitErr != 0 {
		m.Err, err = d.str()
	}
	if err != nil {
		return err
	}
	return d.done()
}

func appendResponse(dst []byte, m *Response, compress bool) ([]byte, error) {
	code, ok := msgCodes[m.Type]
	if !ok {
		return nil, fmt.Errorf("wire: unknown message type %q", m.Type)
	}
	var bits uint64 = respBitType
	if m.Job != nil {
		bits |= respBitJob
	}
	if m.Resume != nil {
		bits |= respBitResume
	}
	if m.DelayMs != 0 {
		bits |= respBitDelayMs
	}
	if m.Spec != nil {
		bits |= respBitSpec
	}
	if m.Err != "" {
		bits |= respBitErr
	}
	if m.NeedFull {
		bits |= respBitNeedFull
	}
	dst = append(dst, kindResponse)
	dst = binary.AppendUvarint(dst, bits)
	dst = binary.AppendUvarint(dst, code)
	var err error
	// Job is a few dozen bytes; compressing it would only add overhead.
	if dst, err = appendJSONBlob(dst, m.Job, m.Job != nil, false); err != nil {
		return nil, err
	}
	dst = appendPayload(dst, m.Resume)
	if m.DelayMs != 0 {
		dst = binary.AppendUvarint(dst, uint64(m.DelayMs))
	}
	if dst, err = appendJSONBlob(dst, m.Spec, m.Spec != nil, compress); err != nil {
		return nil, err
	}
	return appendString(dst, m.Err), nil
}

func parseResponse(rec []byte, m *Response) error {
	*m = Response{}
	d, bits, err := openFrame(rec, kindResponse, respBitsKnown)
	if err != nil {
		return err
	}
	if m.Type, err = d.msgType(); err != nil {
		return err
	}
	if bits&respBitJob != 0 {
		m.Job = &Job{}
		err = d.jsonBlob(m.Job)
	}
	if err == nil && bits&respBitResume != 0 {
		m.Resume, err = d.payload()
	}
	if err == nil && bits&respBitDelayMs != 0 {
		m.DelayMs, err = d.uint()
	}
	if err == nil && bits&respBitSpec != 0 {
		m.Spec = &campaign.Spec{}
		err = d.jsonBlob(m.Spec)
	}
	if err == nil && bits&respBitErr != 0 {
		m.Err, err = d.str()
	}
	m.NeedFull = bits&respBitNeedFull != 0
	if err != nil {
		return err
	}
	return d.done()
}

// appendString writes a uvarint-length-prefixed string; empty strings
// write nothing (their bitmap bit is clear).
func appendString(dst []byte, s string) []byte {
	if s == "" {
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendPayload writes [encoding][flags][uvarint len][data]; nil
// payloads write nothing.
func appendPayload(dst []byte, p *Payload) []byte {
	if p == nil {
		return dst
	}
	dst = append(dst, p.Encoding, p.Flags)
	dst = binary.AppendUvarint(dst, uint64(len(p.Data)))
	return append(dst, p.Data...)
}

// appendJSONBlob marshals v and writes it as a payload-framed blob,
// compressed when the codec compresses and it pays.
func appendJSONBlob(dst []byte, v any, present, compress bool) ([]byte, error) {
	if !present {
		return dst, nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	p := JSONPayload(raw)
	if compress {
		p = Compress(raw)
	}
	return appendPayload(dst, p), nil
}

// frameDecoder walks one record's payload with bounds-checked reads.
type frameDecoder struct{ b []byte }

// openFrame validates the kind byte and bitmap and returns a decoder
// positioned at the first field.
func openFrame(rec []byte, kind byte, known uint64) (*frameDecoder, uint64, error) {
	if len(rec) < 2 {
		return nil, 0, fmt.Errorf("wire: short frame: %w", ErrCorrupt)
	}
	if rec[0] != kind {
		return nil, 0, fmt.Errorf("wire: frame kind %d, want %d: %w", rec[0], kind, ErrCorrupt)
	}
	bits, n := binary.Uvarint(rec[1:])
	if n <= 0 {
		return nil, 0, fmt.Errorf("wire: bad field bitmap: %w", ErrCorrupt)
	}
	if bits&^known != 0 {
		return nil, 0, fmt.Errorf("wire: unknown field bits %#x: %w", bits&^known, ErrCorrupt)
	}
	if bits&1 == 0 {
		return nil, 0, fmt.Errorf("wire: frame without message type: %w", ErrCorrupt)
	}
	return &frameDecoder{b: rec[1+n:]}, bits, nil
}

func (d *frameDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, fmt.Errorf("wire: bad varint: %w", ErrCorrupt)
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *frameDecoder) uint() (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > 1<<31 {
		return 0, fmt.Errorf("wire: varint %d out of int range: %w", v, ErrCorrupt)
	}
	return int(v), nil
}

func (d *frameDecoder) msgType() (string, error) {
	code, err := d.uvarint()
	if err != nil {
		return "", err
	}
	name, ok := msgNames[code]
	if !ok {
		return "", fmt.Errorf("wire: unknown message code %d: %w", code, ErrCorrupt)
	}
	return name, nil
}

func (d *frameDecoder) bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.b)) {
		return nil, fmt.Errorf("wire: field length %d exceeds frame: %w", n, ErrCorrupt)
	}
	b := d.b[:n]
	d.b = d.b[n:]
	return b, nil
}

func (d *frameDecoder) str() (string, error) {
	b, err := d.bytes()
	return string(b), err
}

func (d *frameDecoder) payload() (*Payload, error) {
	if len(d.b) < 2 {
		return nil, fmt.Errorf("wire: short payload header: %w", ErrCorrupt)
	}
	enc, flags := d.b[0], d.b[1]
	d.b = d.b[2:]
	data, err := d.bytes()
	if err != nil {
		return nil, err
	}
	// Copy out of the record buffer: payloads outlive the frame (delta
	// bases, spooled checkpoints).
	return &Payload{Encoding: enc, Flags: flags, Data: append([]byte(nil), data...)}, nil
}

func (d *frameDecoder) jsonBlob(v any) error {
	p, err := d.payload()
	if err != nil {
		return err
	}
	raw, err := p.Resolve(nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

// done rejects trailing bytes — a frame must account for itself.
func (d *frameDecoder) done() error {
	if len(d.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes in frame: %w", len(d.b), ErrCorrupt)
	}
	return nil
}
