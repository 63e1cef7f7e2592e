package trace

import (
	"bytes"
	"errors"
	"os"
	"testing"
)

func framedStream(t testing.TB, payloads ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	rw := NewRecordWriter(&buf, false)
	for _, p := range payloads {
		if err := rw.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRecordStreamRoundTrip(t *testing.T) {
	want := [][]byte{[]byte("alpha"), {}, []byte(`{"t":"done"}`), bytes.Repeat([]byte{0xAB}, 4096)}
	scan, err := ScanRecords(bytes.NewReader(framedStream(t, want...)))
	if err != nil {
		t.Fatal(err)
	}
	if scan.TailErr != nil {
		t.Fatalf("clean stream reported tail error %v", scan.TailErr)
	}
	if len(scan.Records) != len(want) {
		t.Fatalf("got %d records, want %d", len(scan.Records), len(want))
	}
	for i := range want {
		if !bytes.Equal(scan.Records[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, scan.Records[i], want[i])
		}
	}
}

func TestRecordStreamEmptyIsFresh(t *testing.T) {
	scan, err := ScanRecords(bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 0 || scan.CleanLen != 0 || scan.TailErr != nil {
		t.Fatalf("empty stream scan = %+v", scan)
	}
}

func TestRecordStreamForeignMagic(t *testing.T) {
	if _, err := ScanRecords(bytes.NewReader([]byte("NOTJNLxxxxxxxx"))); !errors.Is(err, ErrFormat) {
		t.Fatalf("foreign stream err = %v, want ErrFormat", err)
	}
}

// TestRecordStreamTruncatedAtEveryOffset mirrors the checkpoint
// truncation test: cutting the stream at any byte after the clean
// prefix of records must surface a typed tail error, keep every record
// before the cut, and report a CleanLen a writer can truncate to.
func TestRecordStreamTruncatedAtEveryOffset(t *testing.T) {
	payloads := [][]byte{[]byte("first"), []byte("second-longer-record"), []byte("third")}
	data := framedStream(t, payloads...)
	// Byte offset where the last record begins (its 8-byte header).
	lastStart := len(data) - 8 - len(payloads[2])
	// Record boundaries are clean ends: a file cut exactly there is
	// indistinguishable from one that legitimately stopped writing.
	boundaries := map[int]bool{len(recordMagic): true}
	off := len(recordMagic)
	for _, p := range payloads {
		off += 8 + len(p)
		boundaries[off] = true
	}
	// cut 0 is an empty file — a fresh stream, not a torn one.
	for cut := 1; cut < len(data); cut++ {
		scan, err := ScanRecords(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut %d: hard error %v", cut, err)
		}
		if boundaries[cut] {
			if scan.TailErr != nil || scan.CleanLen != int64(cut) {
				t.Fatalf("cut %d (boundary): tail = %v, CleanLen = %d", cut, scan.TailErr, scan.CleanLen)
			}
			continue
		}
		if scan.TailErr == nil {
			t.Fatalf("cut %d/%d: no tail error", cut, len(data))
		}
		if !errors.Is(scan.TailErr, ErrTruncated) {
			t.Fatalf("cut %d: tail err = %v, want ErrTruncated", cut, scan.TailErr)
		}
		if int64(cut) != scan.CleanLen+scan.TornBytes {
			t.Fatalf("cut %d: CleanLen %d + TornBytes %d != cut", cut, scan.CleanLen, scan.TornBytes)
		}
		// Cuts inside the final record keep the first two records intact.
		if cut >= lastStart && len(scan.Records) != 2 {
			t.Fatalf("cut %d (inside final record): kept %d records, want 2", cut, len(scan.Records))
		}
		for i, rec := range scan.Records {
			if !bytes.Equal(rec, payloads[i]) {
				t.Fatalf("cut %d: surviving record %d corrupted: %q", cut, i, rec)
			}
		}
	}
}

func TestRecordStreamCorruptCRC(t *testing.T) {
	payloads := [][]byte{[]byte("keep-me"), []byte("corrupt-me")}
	data := framedStream(t, payloads...)
	// Flip a payload byte of the final record.
	data[len(data)-1] ^= 0xFF
	scan, err := ScanRecords(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(scan.TailErr, ErrFormat) {
		t.Fatalf("tail err = %v, want ErrFormat", scan.TailErr)
	}
	if len(scan.Records) != 1 || !bytes.Equal(scan.Records[0], payloads[0]) {
		t.Fatalf("surviving records = %q", scan.Records)
	}
	if scan.TornBytes == 0 {
		t.Fatal("corrupt tail reported zero torn bytes")
	}
}

// TestRecordWriterContinuing appends to an existing stream without
// re-emitting the magic — the reopened-journal path.
func TestRecordWriterContinuing(t *testing.T) {
	var buf bytes.Buffer
	rw := NewRecordWriter(&buf, false)
	if err := rw.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	rw2 := NewRecordWriter(&buf, true)
	if err := rw2.Append([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := rw2.Flush(); err != nil {
		t.Fatal(err)
	}
	scan, err := ScanRecords(bytes.NewReader(buf.Bytes()))
	if err != nil || scan.TailErr != nil {
		t.Fatalf("scan err = %v tail = %v", err, scan.TailErr)
	}
	if len(scan.Records) != 2 || string(scan.Records[1]) != "two" {
		t.Fatalf("records = %q", scan.Records)
	}
}

func TestScanFile(t *testing.T) {
	dir := t.TempDir()

	// A missing file is a fresh stream, not an error.
	scan, err := ScanFile(dir + "/absent.log")
	if err != nil {
		t.Fatalf("missing file: %v", err)
	}
	if len(scan.Records) != 0 || scan.CleanLen != 0 || scan.TailErr != nil {
		t.Fatalf("missing file scan = %+v, want fresh stream", scan)
	}

	// A real stream round-trips, including a torn tail.
	data := framedStream(t, []byte("one"), []byte("two"))
	path := dir + "/stream.log"
	if err := os.WriteFile(path, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	scan, err = ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 1 || string(scan.Records[0]) != "one" {
		t.Fatalf("records = %q, want [one]", scan.Records)
	}
	if !errors.Is(scan.TailErr, ErrTruncated) {
		t.Fatalf("tail err = %v, want ErrTruncated", scan.TailErr)
	}

	// Foreign bytes are a hard error, same as ScanRecords.
	foreign := dir + "/foreign.log"
	if err := os.WriteFile(foreign, []byte("not a record stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ScanFile(foreign); !errors.Is(err, ErrFormat) {
		t.Fatalf("foreign file err = %v, want ErrFormat", err)
	}
}
