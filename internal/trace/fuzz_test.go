package trace

// Fuzzing of the decoders that read bytes from a disk or a peer: the
// checkpoint a remote steerer sends, and the framed record streams the
// journals, the spool and the wire are built on.

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"spice/internal/vec"
)

// headerOnly is a SPCKP2 header claiming n atoms in every block, with no
// body behind it.
func headerOnly(n int64) []byte {
	var buf bytes.Buffer
	buf.WriteString(ckptMagic)
	for _, v := range []int64{1, 0, 0, n, 0, n, n} { // step time seed n nrng nref nfrc
		binary.Write(&buf, binary.LittleEndian, v)
	}
	return buf.Bytes()
}

// TestCheckpointHeaderOnlyAllocatesLittle: a header's atom counts are
// the input's claim, not its size. A 62-byte header claiming a million
// atoms per block must fail as truncated without allocating the blocks
// it names (4 × 24 MiB).
func TestCheckpointHeaderOnlyAllocatesLittle(t *testing.T) {
	input := headerOnly(1 << 20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadCheckpoint(bytes.NewReader(input))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("header-only checkpoint accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("reading a %d-byte header allocated %d bytes", len(input), got)
	}
}

// FuzzReadCheckpoint: no input panics the reader or makes it allocate
// the blocks a header merely claims, and whatever it accepts re-encodes
// to bytes that decode to the same bytes again.
func FuzzReadCheckpoint(f *testing.F) {
	var buf bytes.Buffer
	c := &Checkpoint{Step: 7, Time: 1.5, Seed: 3,
		Pos: []vec.V{{X: 1}, {Y: 2}}, Vel: []vec.V{{Z: 3}, {X: 4}},
		RNG: []uint64{1, 2, 3}, NeighborRef: []vec.V{{X: 1}, {Y: 2}}, Force: []vec.V{{Z: -1}, {}}}
	if err := WriteCheckpoint(&buf, c); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(headerOnly(1 << 30))
	f.Add([]byte("SPCKP1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := WriteCheckpoint(&once, got); err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		again, err := ReadCheckpoint(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if err := WriteCheckpoint(&twice, again); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("re-encoding is not stable (err %v)", err)
		}
	})
}

// FuzzScanRecords: no input panics the scan, it keeps the records the
// streaming reader reads before the first torn, corrupt or oversized
// frame, and its clean prefix and torn tail cover the input exactly.
func FuzzScanRecords(f *testing.F) {
	stream := framedStream(f, []byte("alpha"), nil, []byte(`{"t":"done"}`))
	f.Add(stream)
	f.Add(stream[:len(stream)-3])
	corrupt := bytes.Clone(stream)
	corrupt[len(corrupt)-1] ^= 0xff
	f.Add(corrupt)
	f.Add([]byte(recordMagic + "\xff\xff\xff\x7f\x00\x00\x00\x00"))
	f.Add([]byte("SPJ"))
	f.Fuzz(func(t *testing.T, data []byte) {
		scan, err := ScanRecords(bytes.NewReader(data))
		rr := NewRecordReader(bytes.NewReader(data))
		var read [][]byte
		for {
			p, err := rr.Next()
			if err != nil {
				break
			}
			read = append(read, p)
		}
		if err != nil {
			if len(read) != 0 {
				t.Fatalf("scan refused the stream (%v), reader read %d records", err, len(read))
			}
			return
		}
		if scan.CleanLen+scan.TornBytes != int64(len(data)) {
			t.Fatalf("CleanLen %d + TornBytes %d != %d input bytes", scan.CleanLen, scan.TornBytes, len(data))
		}
		if len(read) != len(scan.Records) {
			t.Fatalf("reader read %d records, scan kept %d", len(read), len(scan.Records))
		}
		for i := range read {
			if !bytes.Equal(read[i], scan.Records[i]) {
				t.Fatalf("record %d differs: reader %q, scan %q", i, read[i], scan.Records[i])
			}
		}
	})
}
