package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"spice/internal/trace"
)

// The hello and grant lines of the three version pairings, captured
// from the commit before Accept and Open existed (a dist.Worker named
// "w" on slot 0 against a dist.Coordinator serving {"beads":3}), plus
// the refusal line. Peers built from any commit since PR 10 send and
// expect exactly these bytes.
var helloGolden = []struct {
	name           string
	worker, coord  Session // what each end is willing to speak
	offer, grant   string
	version        int
	delta, comp    bool
	coordSeesOffer int
}{
	{
		name:    "v1-worker-v1-coordinator",
		worker:  Session{Name: "w/0", Site: "w", Version: V1, Delta: true, Comp: true},
		coord:   Session{Version: V1, Delta: true, Comp: true},
		offer:   `{"type":"hello","name":"w/0","site":"w","wire":1}` + "\n",
		grant:   `{"type":"ok","system":{"beads":3},"wire":1,"delta":true,"comp":true}` + "\n",
		version: V1, delta: true, comp: true, coordSeesOffer: V1,
	},
	{
		name:   "v0-worker-v1-coordinator",
		worker: Session{Name: "w/0", Site: "w"},
		coord:  Session{Version: V1, Delta: true, Comp: true},
		offer:  `{"type":"hello","name":"w/0","site":"w","noDelta":true,"noComp":true}` + "\n",
		grant:  `{"type":"ok","system":{"beads":3}}` + "\n",
	},
	{
		name:           "v1-worker-v0-coordinator",
		worker:         Session{Name: "w/0", Site: "w", Version: V1, Delta: true, Comp: true},
		coord:          Session{},
		offer:          `{"type":"hello","name":"w/0","site":"w","wire":1}` + "\n",
		grant:          `{"type":"ok","system":{"beads":3}}` + "\n",
		coordSeesOffer: V1,
	},
}

// codecVersion names the framing a session actually installed.
func codecVersion(c Codec) int {
	if _, ok := c.(*binaryCodec); ok {
		return V1
	}
	return V0
}

const refusalGolden = `{"type":"ok","err":"dist: expected hello"}` + "\n"

// TestHelloGolden pins both halves of the exchange byte-for-byte: Open
// must write the captured offer when fed the captured grant, Accept
// must write the captured grant when fed the captured offer, and both
// must come away with the same agreement.
func TestHelloGolden(t *testing.T) {
	system := []byte(`{"beads":3}`)
	for _, g := range helloGolden {
		t.Run(g.name, func(t *testing.T) {
			var offer bytes.Buffer
			ws, err := Open(strings.NewReader(g.grant), &offer, g.worker)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if offer.String() != g.offer {
				t.Errorf("offer line:\n got %q\nwant %q", offer.String(), g.offer)
			}
			if !bytes.Equal(ws.System, system) {
				t.Errorf("worker resolved system %q, want %q", ws.System, system)
			}

			g.coord.System = system
			var grant bytes.Buffer
			cs, err := Accept(strings.NewReader(g.offer), &grant, g.coord)
			if err != nil {
				t.Fatalf("Accept: %v", err)
			}
			if grant.String() != g.grant {
				t.Errorf("grant line:\n got %q\nwant %q", grant.String(), g.grant)
			}
			if cs.Name != "w/0" || cs.Site != "w" || cs.Offered != g.coordSeesOffer || cs.Downgraded {
				t.Errorf("coordinator saw %q at %q offering %d (downgraded %v)", cs.Name, cs.Site, cs.Offered, cs.Downgraded)
			}
			for side, s := range map[string]*Session{"worker": ws, "coordinator": cs} {
				if s.Version != g.version || s.Delta != g.delta || s.Comp != g.comp || codecVersion(s.Codec) != g.version {
					t.Errorf("%s agreed v%d delta=%v comp=%v (codec v%d), want v%d delta=%v comp=%v",
						side, s.Version, s.Delta, s.Comp, codecVersion(s.Codec), g.version, g.delta, g.comp)
				}
			}
		})
	}
}

func TestAcceptRefusesAndDowngrades(t *testing.T) {
	local := Session{Version: V1, Delta: true, Comp: true}
	for _, first := range []string{"not json\n", `{"type":"next"}` + "\n", "\n"} {
		var out bytes.Buffer
		if s, err := Accept(strings.NewReader(first), &out, local); err == nil {
			t.Errorf("Accept(%q) = %+v, want an error", first, s)
		}
		if out.String() != refusalGolden {
			t.Errorf("Accept(%q) replied %q, want %q", first, out.String(), refusalGolden)
		}
	}
	// No newline at all: nothing to answer.
	var out bytes.Buffer
	if _, err := Accept(strings.NewReader(`{"type":"hello"`), &out, local); err == nil || out.Len() != 0 {
		t.Errorf("unterminated hello: err %v, reply %q", err, out.String())
	}
	// A peer from the future is served on v0, defaults its site to its
	// name, and the downgrade is reported.
	out.Reset()
	s, err := Accept(strings.NewReader(`{"type":"hello","name":"f","wire":99}`+"\n"), &out, local)
	if err != nil {
		t.Fatal(err)
	}
	if s.Version != V0 || !s.Downgraded || s.Offered != 99 || s.Delta || s.Comp || s.Site != "f" {
		t.Errorf("future offer: %+v", s)
	}
	if out.String() != `{"type":"ok"}`+"\n" {
		t.Errorf("future offer granted %q", out.String())
	}
}

func TestOpenClampsAndRefusal(t *testing.T) {
	var sink bytes.Buffer
	_, err := Open(strings.NewReader(refusalGolden), &sink, Session{Name: "w"})
	if !errors.Is(err, ErrRefused) || !strings.Contains(err.Error(), "dist: expected hello") {
		t.Errorf("refused hello: %v", err)
	}
	// A grant above the offer, above MaxVersion or negative falls back to
	// v0, and v0 never carries delta or compression whatever the line says.
	for _, tc := range []struct {
		offer int
		grant string
	}{
		{V0, `{"type":"ok","wire":1,"delta":true,"comp":true}`},
		{99, `{"type":"ok","wire":7,"delta":true,"comp":true}`},
		{V1, `{"type":"ok","wire":-3,"delta":true,"comp":true}`},
	} {
		s, err := Open(strings.NewReader(tc.grant+"\n"), &sink, Session{Version: tc.offer, Delta: true, Comp: true})
		if err != nil {
			t.Fatal(err)
		}
		if s.Version != V0 || s.Delta || s.Comp || codecVersion(s.Codec) != V0 {
			t.Errorf("offer %d, grant %s: agreed %+v", tc.offer, tc.grant, s)
		}
	}
}

func TestSessionPackAndCarries(t *testing.T) {
	base, raw := growingDoc(100), growingDoc(110)
	plain, comp, delta := JSONPayload(raw), Compress(raw), Delta(base, raw)
	for _, tc := range []struct {
		name             string
		s                Session
		noBase, withBase byte // flags Pack chooses
		carries          [3]bool
	}{
		{"v0", Session{}, 0, 0, [3]bool{true, false, false}},
		{"v1-bare", Session{Version: V1}, 0, 0, [3]bool{true, true, false}},
		{"v1-comp", Session{Version: V1, Comp: true}, FlagCompressed, FlagCompressed, [3]bool{true, true, false}},
		{"v1-delta", Session{Version: V1, Delta: true}, 0, FlagDelta, [3]bool{true, true, true}},
		{"v1-full", Session{Version: V1, Delta: true, Comp: true}, FlagCompressed, FlagDelta, [3]bool{true, true, true}},
	} {
		if got := tc.s.Pack(nil, raw).Flags; got != tc.noBase {
			t.Errorf("%s: Pack without a base chose flags %#x, want %#x", tc.name, got, tc.noBase)
		}
		p := tc.s.Pack(base, raw)
		if p.Flags != tc.withBase {
			t.Errorf("%s: Pack with a base chose flags %#x, want %#x", tc.name, p.Flags, tc.withBase)
		}
		if got, err := p.Resolve(base); err != nil || !bytes.Equal(got, raw) {
			t.Errorf("%s: packed payload does not resolve: %v", tc.name, err)
		}
		if !tc.s.Carries(p) {
			t.Errorf("%s: session cannot carry what it packed", tc.name)
		}
		for i, q := range []*Payload{plain, comp, delta} {
			if got := tc.s.Carries(q); got != tc.carries[i] {
				t.Errorf("%s: Carries(flags %#x) = %v, want %v", tc.name, q.Flags, got, tc.carries[i])
			}
		}
		if !tc.s.Carries(nil) || tc.s.Pack(base, nil) != nil {
			t.Errorf("%s: nil payload mishandled", tc.name)
		}
	}
}

// FuzzAccept feeds the coordinator's one pre-negotiation decoder an
// arbitrary first line plus whatever follows it on the connection.
func FuzzAccept(f *testing.F) {
	for _, g := range helloGolden {
		f.Add([]byte(g.offer), 1)
	}
	frame, _ := appendRequest(nil, &Request{Type: MsgNext}, false)
	var framed bytes.Buffer
	rw := trace.NewRecordWriter(&framed, false)
	_ = rw.Append(frame)
	_ = rw.Flush()
	f.Add(append([]byte(helloGolden[0].offer), framed.Bytes()...), 1)
	f.Add([]byte(`{"type":"hello","name":"f","wire":99}`+"\n"+`{"type":"next"}`+"\n"), 1)
	f.Add([]byte(`{"type":"hello","wire":-1,"noComp":true}`+"\n"), 0)
	f.Add([]byte("not json\n"), 1)
	f.Add([]byte(`{"type":"next"}`+"\n"), 1)
	f.Add([]byte(`{"type":"hello"`), 7)
	f.Fuzz(func(t *testing.T, in []byte, localMax int) {
		var out bytes.Buffer
		local := Session{Version: localMax, Delta: true, Comp: true, System: []byte(`{"beads":3}`)}
		s, err := Accept(bytes.NewReader(in), &out, local)
		reply := out.Bytes()
		if len(reply) > 0 && (bytes.Count(reply, []byte("\n")) != 1 || reply[len(reply)-1] != '\n') {
			t.Fatalf("reply is not one line: %q", reply)
		}
		var grant Response
		if len(reply) > 0 {
			if err := json.Unmarshal(reply, &grant); err != nil {
				t.Fatalf("reply %q is not JSON: %v", reply, err)
			}
		}
		if err != nil {
			if len(reply) > 0 && grant.Err == "" {
				t.Fatalf("Accept failed (%v) but granted %q", err, reply)
			}
			return
		}
		if s.Version < V0 || s.Version > MaxVersion || s.Version > max(localMax, V0) {
			t.Fatalf("granted v%d to local max %d", s.Version, localMax)
		}
		if grant.Err != "" || grant.Wire != s.Version || grant.Delta != s.Delta || grant.Comp != s.Comp {
			t.Fatalf("grant line %q disagrees with session %+v", reply, s)
		}
		if (s.Delta || s.Comp) && s.Version < V1 {
			t.Fatalf("v0 session with delta=%v comp=%v", s.Delta, s.Comp)
		}
		// Whatever followed the hello belongs to the negotiated codec.
		var req Request
		_ = s.Decode(&req)
	})
}

// FuzzFrame feeds the v1 frame parsers arbitrary record payloads: a
// frame either fails to parse or re-encodes to a frame that parses to
// the same message.
func FuzzFrame(f *testing.F) {
	for _, rec := range [][]byte{{}, {3, 1, 1}, {1, 0xFF, 0xFF, 1}, {1, 1, 99}, {1, 1, 1, 7}} {
		f.Add(rec) // TestCodecStrictDecode's garbage
	}
	spec := testSpec()
	log := &trace.WorkLog{Kappa: 100, Velocity: 800, Seed: 3, Samples: []trace.WorkSample{{Lambda: 1, Z: 0.5, Work: 2.25}}}
	for _, m := range []*Request{
		{Type: MsgNext},
		{Type: MsgHello, Name: "w1", Site: "site-a", Wire: V1, NoDelta: true, NoComp: true},
		{Type: MsgProgress, JobID: "j", Attempt: 2, Ckpt: Delta(growingDoc(20), growingDoc(24))},
		{Type: MsgResult, JobID: "j", Attempt: 1, Log: log},
		{Type: MsgFail, JobID: "j", Err: "boom"},
	} {
		for _, compress := range []bool{false, true} {
			rec, err := appendRequest(nil, m, compress)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(rec)
		}
	}
	for _, m := range []*Response{
		{Type: MsgOK, NeedFull: true},
		{Type: MsgWait, DelayMs: 250},
		{Type: MsgAssign, Job: &Job{ID: "j", Seed: 9, Index: 1, Attempt: 1}, Spec: spec, Resume: Compress(growingDoc(40))},
		{Type: MsgOK, System: JSONPayload([]byte(`{"beads":3}`)), Wire: V1, Delta: true, Comp: true},
		{Type: MsgRetry, DelayMs: 50, Err: "degraded"},
	} {
		rec, err := appendResponse(nil, m, true)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		var req, req2 Request
		if parseRequest(rec, &req) == nil {
			again, err := appendRequest(nil, &req, false)
			if err != nil {
				t.Fatalf("parsed request %+v does not re-encode: %v", req, err)
			}
			if err := parseRequest(again, &req2); err != nil || !reflect.DeepEqual(req, req2) {
				t.Fatalf("request round trip: %+v then %+v (%v)", req, req2, err)
			}
		}
		var resp, resp2 Response
		if parseResponse(rec, &resp) == nil {
			again, err := appendResponse(nil, &resp, false)
			if err != nil {
				t.Fatalf("parsed response %+v does not re-encode: %v", resp, err)
			}
			if err := parseResponse(again, &resp2); err != nil || !reflect.DeepEqual(resp, resp2) {
				t.Fatalf("response round trip: %+v then %+v (%v)", resp, resp2, err)
			}
		}
	})
}

// FuzzResolve treats its input both ways round: as bytes a peer claims
// are a compressed or delta payload (never a panic, and a delta that
// resolves matches its own checksum), and as a document to pack
// (whatever Compress and Delta produce resolves back to it).
func FuzzResolve(f *testing.F) {
	base := growingDoc(50)
	for _, p := range []*Payload{Compress(growingDoc(200)), Delta(base, growingDoc(60))} {
		f.Add(p.Flags, p.Data, base)
		f.Add(p.Flags, p.Data, []byte(nil))
		f.Add(p.Flags, p.Data[:len(p.Data)/2], base) // TestPayloadCorruptionIsAnError's truncation
		mut := append([]byte(nil), p.Data...)
		mut[len(mut)/2] ^= 0x55 // and its bit flip
		f.Add(p.Flags, mut, base)
	}
	f.Add(byte(0), []byte(`{"a":1}`), []byte(nil))
	f.Add(byte(0x80), []byte("x"), base)
	f.Fuzz(func(t *testing.T, flags byte, data, base []byte) {
		p := &Payload{Flags: flags, Data: data}
		out, err := p.Resolve(base)
		if err == nil && flags == FlagDelta && crc32.ChecksumIEEE(out) != binary.LittleEndian.Uint32(data[4:8]) {
			t.Fatalf("delta resolved to bytes that fail its own checksum")
		}
		for _, packed := range []*Payload{Compress(data), Delta(base, data)} {
			got, err := packed.Resolve(base)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("document packed with flags %#x does not resolve back: %v", packed.Flags, err)
			}
		}
	})
}
