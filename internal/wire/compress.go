package wire

// The block compressor behind FlagCompressed and FlagDelta: a small
// LZ77 coder over the standard library only (the container bakes in no
// snappy/zstd, and a hand-rolled coder lets delta encoding fall out of
// the same machinery). The op stream reproduces src by interleaving
// literal runs with back-references into everything already produced —
// including, crucially, a dictionary prepended to the match window.
// Compress passes an empty dictionary; Delta passes the previous
// checkpoint, so the unchanged bulk of a document that grows by
// appending collapses into a few long matches. This is what makes
// incremental checkpoints pay: a JSON re-encode shifts byte alignment
// enough that XOR-style deltas see noise, but substring reuse against
// the previous image survives any float reformatting that did not
// actually change the values.
//
// Integrity is layered above and around: the v1 codec CRCs every frame
// (trace records), and delta payloads carry base/output CRCs, so the
// coder itself only needs to fail cleanly on malformed input, never
// silently read out of bounds.

import (
	"encoding/binary"
	"fmt"
)

const (
	// minMatch is the shortest back-reference worth encoding: a match
	// costs a tag varint plus a distance varint, at least 2-3 bytes.
	minMatch = 4
	// The match-candidate hash table (one candidate per bucket, newest
	// wins) has the match window's size rounded up to a power of two,
	// clamped to [2^minTableBits, 2^maxTableBits] buckets; a smaller
	// table masks hash4 to its size.
	minTableBits = 8
	maxTableBits = 15
	// maxRaw bounds a decoded document so a corrupt length field cannot
	// drive an unbounded allocation (mirrors trace's record limit).
	maxRaw = 64 << 20
)

func hash4(v uint32) uint32 { return (v * 2654435761) >> (32 - maxTableBits) }

// lzEncode appends to dst an op stream reproducing src, with dict
// prepended to the match window. Each op starts with a uvarint tag:
// even tags are literal runs (tag>>1 raw bytes follow), odd tags are
// matches of length minMatch+tag>>1 followed by a uvarint distance
// back from the current position, which may reach into dict.
func lzEncode(dst, dict, src []byte) []byte {
	hist := append(dict[:len(dict):len(dict)], src...)
	bits := minTableBits
	for bits < maxTableBits && 1<<bits < len(hist) {
		bits++
	}
	table := make([]int32, 1<<bits)
	mask := uint32(len(table) - 1)
	for i := range table {
		table[i] = -1
	}
	// Seed the table with dictionary positions so the first bytes of
	// src can match into the dictionary immediately.
	for i := 0; i+minMatch <= len(dict); i++ {
		table[hash4(binary.LittleEndian.Uint32(hist[i:]))&mask] = int32(i)
	}
	litStart := len(dict)
	pos := len(dict)
	flushLit := func(end int) {
		if end > litStart {
			dst = binary.AppendUvarint(dst, uint64(end-litStart)<<1)
			dst = append(dst, hist[litStart:end]...)
		}
	}
	for pos+minMatch <= len(hist) {
		h := hash4(binary.LittleEndian.Uint32(hist[pos:])) & mask
		cand := table[h]
		table[h] = int32(pos)
		if cand < 0 || binary.LittleEndian.Uint32(hist[cand:]) != binary.LittleEndian.Uint32(hist[pos:]) {
			pos++
			continue
		}
		length := minMatch
		for pos+length < len(hist) && hist[int(cand)+length] == hist[pos+length] {
			length++
		}
		flushLit(pos)
		dst = binary.AppendUvarint(dst, uint64(length-minMatch)<<1|1)
		dst = binary.AppendUvarint(dst, uint64(pos-int(cand)))
		// Index a stride of positions inside the match so later data can
		// still find this region; indexing every byte of a long match
		// costs more than it recovers.
		end := pos + length
		for i := pos + 1; i < end && i+minMatch <= len(hist); i += 7 {
			table[hash4(binary.LittleEndian.Uint32(hist[i:]))&mask] = int32(i)
		}
		pos = end
		litStart = pos
	}
	flushLit(len(hist))
	return dst
}

// lzDecode reproduces the rawLen bytes lzEncode produced ops for,
// given the same dict. Every bound is checked: malformed input yields
// ErrCorrupt, never a panic or an out-of-range read.
func lzDecode(dict, ops []byte, rawLen uint64) ([]byte, error) {
	if rawLen > maxRaw {
		return nil, fmt.Errorf("wire: raw length %d exceeds limit: %w", rawLen, ErrCorrupt)
	}
	want := len(dict) + int(rawLen)
	hist := make([]byte, len(dict), want)
	copy(hist, dict)
	for len(ops) > 0 {
		tag, n := binary.Uvarint(ops)
		if n <= 0 || tag>>1 > maxRaw {
			return nil, fmt.Errorf("wire: bad op tag: %w", ErrCorrupt)
		}
		ops = ops[n:]
		if tag&1 == 0 {
			lit := int(tag >> 1)
			if lit > len(ops) || len(hist)+lit > want {
				return nil, fmt.Errorf("wire: literal run out of range: %w", ErrCorrupt)
			}
			hist = append(hist, ops[:lit]...)
			ops = ops[lit:]
			continue
		}
		length := minMatch + int(tag>>1)
		dist, n := binary.Uvarint(ops)
		if n <= 0 {
			return nil, fmt.Errorf("wire: bad match distance: %w", ErrCorrupt)
		}
		ops = ops[n:]
		src := len(hist) - int(dist)
		if dist == 0 || dist > uint64(len(hist)) || src < 0 || len(hist)+length > want {
			return nil, fmt.Errorf("wire: match out of range: %w", ErrCorrupt)
		}
		// Byte-wise copy: a match may overlap its own output (RLE-style
		// runs encode as distance < length).
		for i := 0; i < length; i++ {
			hist = append(hist, hist[src+i])
		}
	}
	if len(hist) != want {
		return nil, fmt.Errorf("wire: decoded %d bytes, want %d: %w", len(hist)-len(dict), rawLen, ErrCorrupt)
	}
	return hist[len(dict):], nil
}
