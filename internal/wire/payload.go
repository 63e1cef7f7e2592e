// Package wire is the versioned coordinator↔worker transport: the
// message vocabulary (Request/Response), the opaque bulk Payload type
// with explicit compression/delta flags, and the Codec implementations
// behind per-connection version negotiation.
//
// Two versions exist. v0 is the original JSON-lines protocol — one
// request and one response object per line, netcat-debuggable, byte
// identical to what the dist package spoke before this package existed,
// so old workers and coordinators interoperate without ceremony. v1
// frames every message as a CRC-checked internal/trace record whose
// payload is a field-bitmap + varint binary encoding, with lz block
// compression on bulk payloads and delta encoding on checkpoints.
//
// Version discovery cannot require already knowing the version, so the
// hello exchange (Accept, Open) always travels as one JSON line per
// direction: the worker offers its maximum version, the coordinator
// grants min(its own, offered), and both sides switch codecs at the byte
// after the grant's newline. An absent version field is v0 — which is
// precisely what an old peer sends, and what an unknown
// (newer-than-known) offer downgrades to.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Protocol versions. The hello exchange negotiates one per connection.
const (
	// V0 is the legacy JSON-lines transport.
	V0 = 0
	// V1 frames messages as CRC-checked trace records with varint
	// fields and lz-compressed/delta-encoded bulk payloads.
	V1 = 1
	// MaxVersion is the newest version this build speaks.
	MaxVersion = V1
)

// Negotiate picks the version a connection speaks from the local
// maximum and the version the peer's hello offered. An offer newer
// than MaxVersion is unknown — it downgrades to v0, the one version
// every peer speaks, and downgraded reports it so the caller can log
// the event (nothing is silently deprecated).
func Negotiate(localMax, offered int) (version int, downgraded bool) {
	if localMax > MaxVersion {
		localMax = MaxVersion
	}
	if localMax < 0 {
		localMax = 0
	}
	if offered <= 0 {
		return V0, false
	}
	if offered > MaxVersion {
		return V0, true
	}
	if offered < localMax {
		return offered, false
	}
	return localMax, false
}

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

// MarshalJSON emits a plain JSON payload verbatim, so on a v0
// JSON-lines connection a checkpoint travels byte-for-byte as it did
// before this package existed and old peers interoperate. A compressed
// or delta payload on a JSON connection is a negotiation bug; it
// refuses to marshal rather than feeding an old peer bytes it would
// misread as a document.
func (p Payload) MarshalJSON() ([]byte, error) {
	if p.Encoding != EncodingJSON || p.Flags != 0 {
		return nil, fmt.Errorf("wire: payload (encoding %d, flags %#x) cannot travel on a JSON connection", p.Encoding, p.Flags)
	}
	if len(p.Data) == 0 {
		return []byte("null"), nil
	}
	return p.Data, nil
}

// UnmarshalJSON captures the raw JSON value — the v0 read path.
func (p *Payload) UnmarshalJSON(b []byte) error {
	p.Encoding, p.Flags = EncodingJSON, 0
	p.Data = append(p.Data[:0:0], b...)
	return nil
}
