package trace

// Append-only record streams: the framing the dist coordinator's
// write-ahead journal and checkpoint spool are built on. A stream is a
// magic header followed by [length][crc32][payload] records, so a
// reader can always tell a cleanly-ended file from one cut short by a
// crashed writer — the same torn-tail discipline the checkpoint reader
// applies, factored out so every durable dist artifact shares it.
//
// The crucial property is that ScanRecords never returns garbage: it
// yields the longest clean prefix of records plus the byte offset where
// that prefix ends, and reports anything after it (a half-written
// record, a corrupted CRC) as a typed tail error. Recovery truncates at
// the clean offset and appends from there.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"spice/internal/faultfs"
)

const (
	recordMagic = "SPJNL1"
	// maxRecordLen bounds a single record so a corrupted length field
	// cannot drive a multi-gigabyte allocation.
	maxRecordLen = 64 << 20
)

// RecordWriter appends framed records to w. It buffers internally;
// call Flush before relying on the bytes having reached w.
type RecordWriter struct {
	w     *bufio.Writer
	wrote bool
}

// NewRecordWriter returns a writer that emits the stream magic before
// the first record. Pass continuing=true when appending to a stream
// whose magic is already on disk (a reopened journal).
func NewRecordWriter(w io.Writer, continuing bool) *RecordWriter {
	return &RecordWriter{w: bufio.NewWriter(w), wrote: continuing}
}

// Append frames one record. Empty payloads are legal.
func (rw *RecordWriter) Append(payload []byte) error {
	if len(payload) > maxRecordLen {
		return fmt.Errorf("trace: record of %d bytes exceeds limit: %w", len(payload), ErrFormat)
	}
	if !rw.wrote {
		if _, err := rw.w.WriteString(recordMagic); err != nil {
			return err
		}
		rw.wrote = true
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := rw.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := rw.w.Write(payload)
	return err
}

// Flush pushes buffered records to the underlying writer.
func (rw *RecordWriter) Flush() error { return rw.w.Flush() }

// Reset discards any buffered (possibly partially written) state and
// re-targets the writer at w — the repair path after a failed append:
// the caller truncates the file back to its last clean record boundary
// and Resets the writer over it. Pass continuing=false when the
// truncation removed the stream magic too.
func (rw *RecordWriter) Reset(w io.Writer, continuing bool) {
	rw.w.Reset(w)
	rw.wrote = continuing
}

// FramedLen returns the on-disk size of one record carrying payloadLen
// bytes, excluding the stream magic: header plus payload.
func FramedLen(payloadLen int) int64 { return 8 + int64(payloadLen) }

// MagicLen is the size of the stream magic that precedes the first
// record.
const MagicLen = int64(len(recordMagic))

// RecordReader reads framed records one at a time from a live stream —
// the form a network transport needs, where ScanRecords' read-to-EOF
// contract would block forever. Unlike the scan, a reader cannot
// distinguish a torn tail from a record that has not finished arriving;
// it reports a stream that ends mid-record as io.ErrUnexpectedEOF and
// leaves recovery policy to the caller.
type RecordReader struct {
	r     *bufio.Reader
	first bool
}

// NewRecordReader wraps r. If r is already a *bufio.Reader it is used
// directly — the transport handoff case, where buffered bytes read past
// a negotiation boundary must not be lost to a second buffer layer.
func NewRecordReader(r io.Reader) *RecordReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &RecordReader{r: br, first: true}
}

// Next returns the next record's payload. A clean end at a record
// boundary is io.EOF; an end inside a record is io.ErrUnexpectedEOF; a
// bad magic, oversized length, or checksum mismatch wraps ErrFormat.
func (rr *RecordReader) Next() ([]byte, error) {
	if rr.first {
		magic := make([]byte, len(recordMagic))
		if _, err := io.ReadFull(rr.r, magic); err != nil {
			if err == io.EOF {
				return nil, io.EOF // empty stream: no records at all
			}
			return nil, err
		}
		if string(magic) != recordMagic {
			return nil, fmt.Errorf("trace: not a record stream: %w", ErrFormat)
		}
		rr.first = false
	}
	var hdr [8]byte
	if _, err := io.ReadFull(rr.r, hdr[:]); err != nil {
		return nil, err // io.EOF at a boundary, ErrUnexpectedEOF inside
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length > maxRecordLen {
		return nil, fmt.Errorf("trace: record length %d exceeds limit: %w", length, ErrFormat)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(rr.r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("trace: record checksum mismatch: %w", ErrFormat)
	}
	return payload, nil
}

// RecordScan is the result of reading a record stream defensively.
type RecordScan struct {
	// Records is the longest clean prefix of intact records.
	Records [][]byte
	// CleanLen is the byte offset where that prefix ends — the length
	// a recovering writer should truncate the file to before appending.
	CleanLen int64
	// TailErr is nil for a cleanly-ended stream. A stream cut mid-record
	// (crashed writer, partial transfer) yields ErrTruncated; a record
	// whose CRC or length field is corrupt yields ErrFormat. Both wrap
	// the sentinel, so errors.Is works.
	TailErr error
	// TornBytes is how many trailing bytes the tail error covers.
	TornBytes int64
}

// ScanRecords reads a record stream to its end through a RecordReader,
// tolerating a torn tail. A completely empty input is a fresh stream:
// zero records, CleanLen 0, no error. A stream that does not start with
// the record magic is foreign and yields ErrFormat as a hard error (not
// a RecordScan), so callers never truncate a file they do not own.
func ScanRecords(r io.Reader) (*RecordScan, error) {
	cr := &countingReader{r: r}
	rr := NewRecordReader(cr)
	scan := &RecordScan{}
	for {
		p, err := rr.Next()
		if err == nil {
			scan.Records = append(scan.Records, p)
			scan.CleanLen += FramedLen(len(p))
			continue
		}
		switch {
		case err == io.EOF:
		case err == io.ErrUnexpectedEOF:
			scan.TailErr = ErrTruncated
		case errors.Is(err, ErrFormat) && !rr.first:
			scan.TailErr = err // a corrupt frame: everything from here on is suspect
		default:
			return nil, err // a foreign magic or a read error
		}
		break
	}
	if !rr.first {
		scan.CleanLen += MagicLen
	}
	if _, err := io.Copy(io.Discard, cr); err != nil {
		return nil, err
	}
	scan.TornBytes = cr.n - scan.CleanLen
	return scan, nil
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ScanFileFS reads the record stream at path with ScanRecords through
// an injectable filesystem (nil means the OS). A missing file is a
// fresh stream (zero records, no error), so openers of durable logs —
// the dist journal, the write-ahead log — share one code path for first
// start and recovery. Reads are never fault-injected, but routing them
// through the same FS keeps every durable-path syscall on one auditable
// surface.
func ScanFileFS(fsys faultfs.FS, path string) (*RecordScan, error) {
	data, err := faultfs.Or(fsys).ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return &RecordScan{}, nil
		}
		return nil, err
	}
	return ScanRecords(bytes.NewReader(data))
}
