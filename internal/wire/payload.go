// Package wire is the coordinator↔worker transport: the message
// vocabulary (Request/Response), the opaque bulk Payload type with
// explicit compression/delta flags, the hello exchange and the Codec.
//
// There is one protocol, v1: every message after the hello is a
// CRC-checked internal/trace record whose payload is a field-bitmap +
// varint binary encoding, with lz block compression on bulk payloads
// and delta encoding on checkpoints. The hello exchange (Accept, Open)
// travels as one JSON line per direction — the worker offers v1, the
// coordinator grants it — and both sides switch to the codec at the
// byte after the grant's newline.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// V1 is the protocol version a hello offers and a grant carries: binary
// framing with lz-compressed and delta-encoded bulk payloads.
const V1 = 1

// Payload encodings. EncodingJSON is the only one defined: every bulk
// value dist ships (checkpoints, resume images, system configs) is a
// JSON document underneath, whatever Flags did to it in transit.
const (
	EncodingJSON byte = 0
)

// Payload flags describing what Data is.
const (
	// FlagCompressed: Data is one lz block, [uvarint rawLen][ops].
	FlagCompressed byte = 1 << 0
	// FlagDelta: Data is [base CRC32][out CRC32][uvarint rawLen][ops]
	// with the ops drawing back-references into the receiver's copy of
	// the base document.
	FlagDelta byte = 1 << 1
)

// ErrCorrupt reports a payload whose framing or contents cannot be
// decoded. errors.Is-matchable.
var ErrCorrupt = errors.New("wire: corrupt payload")

// ErrBaseMismatch reports a delta payload encoded against a base the
// receiver does not hold (coordinator restart, lost ack, adopted
// lease). The fix is protocol-level, not an error path: answer
// NeedFull so the sender re-sends a complete image.
var ErrBaseMismatch = errors.New("wire: delta base mismatch")

// Payload is one opaque bulk value crossing the wire — a checkpoint, a
// resume image, a system config. The proto structs carry *Payload so
// compression and delta state travel explicitly instead of being
// implied by which codec happened to frame the message. A nil *Payload
// means "no value", exactly like the empty json.RawMessage it
// replaced.
type Payload struct {
	Encoding byte   // EncodingJSON; what Data is once Flags are undone
	Flags    byte   // FlagCompressed | FlagDelta
	Data     []byte // the bytes that travel
}

// JSONPayload wraps a raw JSON document as a plain (uncompressed,
// non-delta) payload. Empty input returns nil so `p != nil` keeps
// meaning "a value was sent".
func JSONPayload(raw []byte) *Payload {
	if len(raw) == 0 {
		return nil
	}
	return &Payload{Data: raw}
}

// Compress wraps raw as a compressed payload, falling back to plain
// when compression does not pay — tiny or incompressible documents
// would otherwise grow.
func Compress(raw []byte) *Payload {
	if len(raw) == 0 {
		return nil
	}
	data := binary.AppendUvarint(make([]byte, 0, len(raw)/2+8), uint64(len(raw)))
	data = lzEncode(data, nil, raw)
	if len(data) >= len(raw) {
		return &Payload{Data: raw}
	}
	return &Payload{Flags: FlagCompressed, Data: data}
}

// Delta encodes raw against base: the lz ops may back-reference into
// base, so the unchanged bulk of a document that grows by appending —
// a checkpoint whose sample log extends — collapses into a few long
// matches. The 8-byte CRC header lets the receiver verify it holds the
// same base before folding, and the reconstruction afterwards. An
// empty base falls back to Compress.
func Delta(base, raw []byte) *Payload {
	if len(base) == 0 {
		return Compress(raw)
	}
	if len(raw) == 0 {
		return nil
	}
	data := make([]byte, 8, len(raw)/4+16)
	binary.LittleEndian.PutUint32(data[0:4], crc32.ChecksumIEEE(base))
	binary.LittleEndian.PutUint32(data[4:8], crc32.ChecksumIEEE(raw))
	data = binary.AppendUvarint(data, uint64(len(raw)))
	data = lzEncode(data, base, raw)
	return &Payload{Flags: FlagDelta, Data: data}
}

// IsDelta reports whether the payload needs a base to resolve.
func (p *Payload) IsDelta() bool { return p != nil && p.Flags&FlagDelta != 0 }

// WireLen is the byte size that actually travels.
func (p *Payload) WireLen() int {
	if p == nil {
		return 0
	}
	return len(p.Data)
}

// Resolve returns the full raw document. base is consulted only for
// delta payloads; ErrBaseMismatch means the sender encoded against a
// base the receiver does not hold and a full payload must be
// requested.
func (p *Payload) Resolve(base []byte) ([]byte, error) {
	if p == nil {
		return nil, nil
	}
	if p.Encoding != EncodingJSON {
		return nil, fmt.Errorf("wire: unknown payload encoding %d: %w", p.Encoding, ErrCorrupt)
	}
	switch p.Flags {
	case 0:
		return p.Data, nil
	case FlagCompressed:
		rawLen, n := binary.Uvarint(p.Data)
		if n <= 0 {
			return nil, fmt.Errorf("wire: bad compressed length: %w", ErrCorrupt)
		}
		return lzDecode(nil, p.Data[n:], rawLen)
	case FlagDelta:
		if len(p.Data) < 9 {
			return nil, fmt.Errorf("wire: short delta payload: %w", ErrCorrupt)
		}
		baseCRC := binary.LittleEndian.Uint32(p.Data[0:4])
		outCRC := binary.LittleEndian.Uint32(p.Data[4:8])
		if len(base) == 0 || crc32.ChecksumIEEE(base) != baseCRC {
			return nil, ErrBaseMismatch
		}
		rawLen, n := binary.Uvarint(p.Data[8:])
		if n <= 0 {
			return nil, fmt.Errorf("wire: bad delta length: %w", ErrCorrupt)
		}
		out, err := lzDecode(base, p.Data[8+n:], rawLen)
		if err != nil {
			return nil, err
		}
		if crc32.ChecksumIEEE(out) != outCRC {
			return nil, fmt.Errorf("wire: delta output checksum mismatch: %w", ErrCorrupt)
		}
		return out, nil
	}
	return nil, fmt.Errorf("wire: unknown payload flags %#x: %w", p.Flags, ErrCorrupt)
}

// MarshalJSON emits a plain JSON payload verbatim: the form the system
// payload takes on the grant line. A compressed or delta payload has no
// JSON form; it refuses to marshal rather than feeding a peer bytes it
// would misread as a document.
func (p Payload) MarshalJSON() ([]byte, error) {
	if p.Encoding != EncodingJSON || p.Flags != 0 {
		return nil, fmt.Errorf("wire: payload (encoding %d, flags %#x) has no JSON form", p.Encoding, p.Flags)
	}
	if len(p.Data) == 0 {
		return []byte("null"), nil
	}
	return p.Data, nil
}

// UnmarshalJSON captures the raw JSON value — the grant line's read path.
func (p *Payload) UnmarshalJSON(b []byte) error {
	p.Encoding, p.Flags = EncodingJSON, 0
	p.Data = append(p.Data[:0:0], b...)
	return nil
}
