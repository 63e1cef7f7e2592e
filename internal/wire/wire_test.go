package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"spice/internal/campaign"
	"spice/internal/trace"
)

// growingDoc imitates a checkpoint whose sample log extends: the shape
// delta encoding must exploit.
func growingDoc(n int) []byte {
	var buf bytes.Buffer
	buf.WriteString(`{"engine":{"pos":[0.1,0.2,0.3]},"samples":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, `{"t":%d,"q":%0.6f}`, i, float64(i)*0.137)
	}
	buf.WriteString(`],"steps":`)
	fmt.Fprintf(&buf, "%d}", n*8)
	return buf.Bytes()
}

// windowSizes straddle the encoder's hash-table sizes: its smallest
// table (256 buckets) and its largest (32768), which every larger
// window shares.
var windowSizes = []int{255, 256, 257, 32767, 32768}

func TestPayloadRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := make([]byte, 4096)
	rng.Read(random)
	docs := [][]byte{
		[]byte(`{}`),
		[]byte(`{"a":1}`),
		growingDoc(500),
		random,                              // incompressible
		bytes.Repeat([]byte("spice"), 2000), // highly repetitive
	}
	for _, w := range windowSizes {
		docs = append(docs, growingDoc(2000)[:w])
	}
	for i, doc := range docs {
		for _, mk := range []struct {
			name string
			p    *Payload
		}{
			{"plain", JSONPayload(doc)},
			{"compress", Compress(doc)},
			{"delta-empty-base", Delta(nil, doc)},
		} {
			got, err := mk.p.Resolve(nil)
			if err != nil {
				t.Fatalf("doc %d %s: resolve: %v", i, mk.name, err)
			}
			if !bytes.Equal(got, doc) {
				t.Fatalf("doc %d %s: round trip mismatch", i, mk.name)
			}
		}
	}
}

func TestDeltaRoundTripAndRatio(t *testing.T) {
	base := growingDoc(500)
	next := growingDoc(520)
	d := Delta(base, next)
	if !d.IsDelta() {
		t.Fatalf("expected a delta payload")
	}
	got, err := d.Resolve(base)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if !bytes.Equal(got, next) {
		t.Fatalf("delta round trip mismatch")
	}
	if ratio := float64(len(next)) / float64(d.WireLen()); ratio < 10 {
		t.Fatalf("delta ratio %.1fx on growing doc, want >= 10x (wire %d raw %d)",
			ratio, d.WireLen(), len(next))
	}
	// Base plus document fill each window size exactly.
	doc := growingDoc(2000)
	for _, w := range windowSizes {
		base, next := doc[:w/3], doc[:w-w/3]
		got, err := Delta(base, next).Resolve(base)
		if err != nil || !bytes.Equal(got, next) {
			t.Fatalf("window %d: delta round trip mismatch (err %v)", w, err)
		}
	}
}

// TestCompressSmallDocAllocBytes bounds what compressing a 200-byte
// document allocates: the encoder's hash table is sized to the match
// window, not to the largest window it supports.
func TestCompressSmallDocAllocBytes(t *testing.T) {
	doc := growingDoc(20)[:200]
	Compress(doc)
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if Compress(doc) == nil {
			t.Fatal("nil payload")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 4<<10 {
		t.Fatalf("compressing 200 bytes allocates %d B/op, want < 4096", per)
	}
}

// TestDeltaLargeWindowAllocBytes bounds what a delta over a window of
// more than 16 KB allocates, the size of every checkpoint delta of a
// 24-bead pull: the encoder reuses its largest (128 KB) hash table
// across calls instead of allocating one per call.
func TestDeltaLargeWindowAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled tables at random under the race detector")
	}
	base, next := growingDoc(340), growingDoc(360)
	if w := len(base) + len(next); w < 16<<10 {
		t.Fatalf("window %d bytes, want >= 16 KB", w)
	}
	Delta(base, next)
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if !Delta(base, next).IsDelta() {
			t.Fatal("not a delta payload")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Fatalf("a delta over a %d-byte window allocates %d B/op, want < 65536", len(base)+len(next), per)
	}
}

// TestDeltaConcurrentEncodes: encoders running at once each take their
// own pooled hash table, so every payload matches a sequential encode.
func TestDeltaConcurrentEncodes(t *testing.T) {
	docs := make([][]byte, 8)
	want := make([][]byte, len(docs))
	for i := range docs {
		docs[i] = growingDoc(200 + 60*i)
		want[i] = Delta(docs[0], docs[i]).Data
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 40; k++ {
				i := (g + k) % len(docs)
				if got := Delta(docs[0], docs[i]).Data; !bytes.Equal(got, want[i]) {
					t.Errorf("goroutine %d: doc %d encoded differently", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestDeltaBaseMismatch(t *testing.T) {
	base := growingDoc(100)
	next := growingDoc(110)
	d := Delta(base, next)
	if _, err := d.Resolve(growingDoc(90)); !errors.Is(err, ErrBaseMismatch) {
		t.Fatalf("wrong base: got %v, want ErrBaseMismatch", err)
	}
	if _, err := d.Resolve(nil); !errors.Is(err, ErrBaseMismatch) {
		t.Fatalf("no base: got %v, want ErrBaseMismatch", err)
	}
}

func TestPayloadCorruptionIsAnError(t *testing.T) {
	base := growingDoc(50)
	for _, p := range []*Payload{Compress(growingDoc(200)), Delta(base, growingDoc(60))} {
		if p.Flags == 0 {
			t.Fatalf("test doc did not compress")
		}
		for i := 0; i < len(p.Data); i++ {
			mut := &Payload{Encoding: p.Encoding, Flags: p.Flags, Data: append([]byte(nil), p.Data...)}
			mut.Data[i] ^= 0x55
			out, err := mut.Resolve(base)
			// Any outcome but a silent wrong answer is acceptable; most
			// mutations must error via CRC or bounds checks.
			if err == nil && p.Flags == FlagDelta {
				t.Fatalf("delta survived mutation at byte %d without CRC failure", i)
			}
			_ = out
		}
		// Truncations must error, not panic.
		for n := 0; n < len(p.Data); n++ {
			mut := &Payload{Encoding: p.Encoding, Flags: p.Flags, Data: p.Data[:n]}
			if _, err := mut.Resolve(base); err == nil && p.Flags == FlagDelta {
				t.Fatalf("truncated delta at %d resolved cleanly", n)
			}
		}
	}
	if _, err := (&Payload{Encoding: 9, Data: []byte("x")}).Resolve(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown encoding: got %v", err)
	}
	if _, err := (&Payload{Flags: 0x80, Data: []byte("x")}).Resolve(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown flags: got %v", err)
	}
}

func TestPayloadJSONCompat(t *testing.T) {
	// Plain payloads travel verbatim inside a JSON message — the form the
	// system payload takes on the grant line.
	req := Request{Type: MsgProgress, JobID: "j1", Ckpt: JSONPayload([]byte(`{"steps":42}`))}
	b, err := json.Marshal(&req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	want := `{"type":"progress","jobId":"j1","ckpt":{"steps":42}}`
	if string(b) != want {
		t.Fatalf("JSON bytes:\n got %s\nwant %s", b, want)
	}
	var back Request
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	raw, err := back.Ckpt.Resolve(nil)
	if err != nil || string(raw) != `{"steps":42}` {
		t.Fatalf("round trip: %s, %v", raw, err)
	}
	// A non-plain payload has no JSON form and must refuse loudly rather
	// than corrupt the peer's line.
	bad := Request{Type: MsgProgress, Ckpt: Compress(growingDoc(200))}
	if bad.Ckpt.Flags == 0 {
		t.Fatalf("test doc did not compress")
	}
	if _, err := json.Marshal(&bad); err == nil {
		t.Fatalf("compressed payload marshaled as JSON")
	}
	// Absent and null fields decode to nil.
	var r2 Request
	if err := json.Unmarshal([]byte(`{"type":"beat","ckpt":null}`), &r2); err != nil {
		t.Fatalf("unmarshal null: %v", err)
	}
	if r2.Ckpt != nil {
		t.Fatalf("null ckpt decoded to %+v", r2.Ckpt)
	}
}

func testSpec() *campaign.Spec {
	return &campaign.Spec{
		Kappas:     []float64{100, 1000},
		Velocities: []float64{800},
		Replicas:   2,
		Distance:   3,
		Seed:       21,
	}
}

func codecPair(t *testing.T, compress bool) (client, server *Codec) {
	t.Helper()
	c2s := &bytes.Buffer{}
	s2c := &bytes.Buffer{}
	return NewCodec(V1, s2c, c2s, compress), NewCodec(V1, c2s, s2c, compress)
}

func TestCodecRoundTrips(t *testing.T) {
	reqs := []*Request{
		{Type: MsgHello, Name: "w1", Site: "site-a"},
		{Type: MsgNext, Name: "w1"},
		{Type: MsgBeat, JobID: "j1", Attempt: 3},
		{Type: MsgProgress, JobID: "j1", Attempt: 3, Ckpt: Delta(growingDoc(100), growingDoc(110))},
		{Type: MsgResult, JobID: "j1", Attempt: 3,
			Log: &trace.WorkLog{Kappa: 100, Velocity: 800, Seed: 7, Samples: []trace.WorkSample{{Lambda: 0.5, Z: 0.4, Work: 0.25}}}},
		{Type: MsgFail, JobID: "j2", Err: "boom"},
	}
	resps := []*Response{
		{Type: MsgOK},
		{Type: MsgOK, NeedFull: true},
		{Type: MsgWait, DelayMs: 250},
		{Type: MsgAssign, Job: &Job{ID: "j1", Combo: campaign.Combo{KappaPN: 100, VAns: 800}, Seed: 9, Index: 2, Attempt: 3},
			Spec: testSpec(), Resume: Compress(growingDoc(150))},
		{Type: MsgDrained},
		{Type: MsgAbandon, Err: "lease revoked"},
		{Type: MsgRetry, DelayMs: 500, Err: "storage degraded"},
	}
	for _, compress := range []bool{false, true} {
		client, server := codecPair(t, compress)
		for _, req := range reqs {
			if err := client.Encode(req); err != nil {
				t.Fatalf("encode %s: %v", req.Type, err)
			}
			var got Request
			if err := server.Decode(&got); err != nil {
				t.Fatalf("decode %s: %v", req.Type, err)
			}
			normalizePayloads(&got.Ckpt, req.Ckpt)
			if !reflect.DeepEqual(&got, req) {
				t.Fatalf("comp=%v request %s mismatch:\n got %+v\nwant %+v", compress, req.Type, &got, req)
			}
		}
		for _, resp := range resps {
			if err := server.Encode(resp); err != nil {
				t.Fatalf("encode %s: %v", resp.Type, err)
			}
			var got Response
			if err := client.Decode(&got); err != nil {
				t.Fatalf("decode %s: %v", resp.Type, err)
			}
			normalizePayloads(&got.Resume, resp.Resume)
			if !reflect.DeepEqual(&got, resp) {
				t.Fatalf("comp=%v response %s mismatch:\n got %+v\nwant %+v", compress, resp.Type, &got, resp)
			}
		}
	}
}

// normalizePayloads smooths over representation differences that are
// not semantic: a nil Data vs empty, and resolves both sides to compare
// the underlying document.
func normalizePayloads(got **Payload, want *Payload) {
	if *got == nil || want == nil {
		return
	}
	g, err1 := (*got).Resolve(nil)
	w, err2 := want.Resolve(nil)
	if err1 == nil && err2 == nil && bytes.Equal(g, w) {
		*got = want
	}
}

func TestCodecStrictDecode(t *testing.T) {
	_, server := codecPair(t, false)
	// Feed the server's reader hand-built garbage frames.
	for _, rec := range [][]byte{
		{},                 // empty frame
		{3, 1, 1},          // unknown kind
		{1, 0xFF, 0xFF, 1}, // unknown bitmap bits
		{1, 1, 99},         // unknown message code
		{1, 1, 1, 7},       // trailing bytes
	} {
		c2s := &bytes.Buffer{}
		rw := trace.NewRecordWriter(c2s, false)
		if err := rw.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := rw.Flush(); err != nil {
			t.Fatal(err)
		}
		server = NewCodec(V1, c2s, &bytes.Buffer{}, false)
		var got Request
		if err := server.Decode(&got); err == nil {
			t.Fatalf("garbage frame %v decoded cleanly to %+v", rec, got)
		}
	}
}

func TestCodecRejectsUnknownType(t *testing.T) {
	client, _ := codecPair(t, false)
	if err := client.Encode(&Request{Type: "nonsense"}); err == nil {
		t.Fatalf("unknown message type encoded")
	}
	if err := client.Encode("not a message"); err == nil {
		t.Fatalf("non-message value encoded")
	}
}
