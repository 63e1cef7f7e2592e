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

// The hello lines of a dist.Worker named "w" on slot 0 and the grant of
// a dist.Coordinator serving {"beads":3}, captured before Accept and
// Open existed. v1 peers built from any commit since send and expect
// exactly these bytes.
const (
	offerGolden = `{"type":"hello","name":"w/0","site":"w","wire":1}` + "\n"
	grantGolden = `{"type":"ok","system":{"beads":3},"wire":1,"delta":true,"comp":true}` + "\n"
	// refusalGolden answers a first line that is not a hello;
	// refusalV0Golden a hello that offers no version.
	refusalGolden   = `{"type":"ok","err":"dist: expected hello"}` + "\n"
	refusalV0Golden = `{"type":"ok","err":"wire: hello offers no version; v1 is required"}` + "\n"
)

// helloGolden pairs this build with itself and with a peer from before
// v1 on either end: the captured unversioned offer, and the captured
// grant that carried no version. This build plays only the v1 end of
// the v0 rows, and those rows pin how it refuses.
var helloGolden = []struct {
	name          string
	offer, reply  string
	worker, coord bool // this build plays the worker / the coordinator end
	served        bool
}{
	{"v1-worker-v1-coordinator", offerGolden, grantGolden, true, true, true},
	{"v0-worker-v1-coordinator", `{"type":"hello","name":"w/0","site":"w","noDelta":true,"noComp":true}` + "\n",
		refusalV0Golden, false, true, false},
	{"v1-worker-v0-coordinator", offerGolden, `{"type":"ok","system":{"beads":3}}` + "\n", true, false, false},
}

// grantLine is the one grant Accept writes, for any system payload.
func grantLine(system []byte) string {
	b, _ := json.Marshal(&Response{Type: MsgOK, System: JSONPayload(system), Wire: V1, Delta: true, Comp: true})
	return string(b) + "\n"
}

// TestHelloGolden pins both halves of the exchange byte-for-byte: Open
// must write the captured offer and Accept the captured reply, a served
// pair must hand over at the first framed byte (the worker's first
// frame decodes on the coordinator's codec), and a refused one must
// fail on the side this build plays.
func TestHelloGolden(t *testing.T) {
	system := []byte(`{"beads":3}`)
	if got := grantLine(system); got != grantGolden {
		t.Fatalf("grant line:\n got %q\nwant %q", got, grantGolden)
	}
	for _, g := range helloGolden {
		t.Run(g.name, func(t *testing.T) {
			in := g.offer
			var ws *Session
			if g.worker {
				var offer bytes.Buffer
				var err error
				ws, err = Open(strings.NewReader(g.reply), &offer, "w/0", "w")
				if offer.String() != g.offer {
					t.Errorf("offer line:\n got %q\nwant %q", offer.String(), g.offer)
				}
				switch {
				case !g.served:
					if !errors.Is(err, ErrRefused) {
						t.Fatalf("Open on %q = %v, want ErrRefused", g.reply, err)
					}
				case err != nil:
					t.Fatalf("Open: %v", err)
				case !bytes.Equal(ws.System, system) || ws.Name != "w/0" || ws.Site != "w":
					t.Errorf("worker session %q at %q with system %q", ws.Name, ws.Site, ws.System)
				default:
					if err := ws.Encode(&Request{Type: MsgNext}); err != nil {
						t.Fatal(err)
					}
					in = offer.String()
				}
			}
			if !g.coord {
				return
			}
			var reply bytes.Buffer
			cs, err := Accept(strings.NewReader(in), &reply, system)
			if reply.String() != g.reply {
				t.Errorf("reply line:\n got %q\nwant %q", reply.String(), g.reply)
			}
			if (err == nil) != g.served {
				t.Fatalf("Accept: %v, want served=%v", err, g.served)
			}
			if err != nil {
				return
			}
			if cs.Name != "w/0" || cs.Site != "w" {
				t.Errorf("coordinator saw %q at %q", cs.Name, cs.Site)
			}
			var req Request
			if err := cs.Decode(&req); err != nil || req.Type != MsgNext {
				t.Errorf("first frame after the hello: %+v, %v", req, err)
			}
		})
	}
}

func TestAcceptRefusesAndDowngrades(t *testing.T) {
	system := []byte(`{"beads":3}`)
	for first, want := range map[string]string{
		"not json\n":                           refusalGolden,
		`{"type":"next"}` + "\n":               refusalGolden,
		"\n":                                   refusalGolden,
		`{"type":"hello","name":"old"}` + "\n": refusalV0Golden,
		`{"type":"hello","wire":-1}` + "\n":    refusalV0Golden,
	} {
		var out bytes.Buffer
		if s, err := Accept(strings.NewReader(first), &out, system); err == nil {
			t.Errorf("Accept(%q) = %+v, want an error", first, s)
		}
		if out.String() != want {
			t.Errorf("Accept(%q) replied %q, want %q", first, out.String(), want)
		}
	}
	// No newline at all: nothing to answer.
	var out bytes.Buffer
	if _, err := Accept(strings.NewReader(`{"type":"hello"`), &out, system); err == nil || out.Len() != 0 {
		t.Errorf("unterminated hello: err %v, reply %q", err, out.String())
	}
	// A peer from the future offers the newest version it speaks: it is
	// granted v1 like every other, and its site defaults to its name.
	out.Reset()
	s, err := Accept(strings.NewReader(`{"type":"hello","name":"f","wire":99}`+"\n"), &out, system)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "f" || s.Site != "f" || out.String() != grantGolden {
		t.Errorf("future offer: %q at %q granted %q", s.Name, s.Site, out.String())
	}
}

func TestOpenClampsAndRefusal(t *testing.T) {
	var sink bytes.Buffer
	_, err := Open(strings.NewReader(refusalGolden), &sink, "w", "w")
	if !errors.Is(err, ErrRefused) || !strings.Contains(err.Error(), "dist: expected hello") {
		t.Errorf("refused hello: %v", err)
	}
	// Anything but the v1 grant with delta and compression is a protocol
	// this end does not speak.
	for _, grant := range []string{
		`{"type":"ok","system":{"beads":3}}`,
		`{"type":"ok","wire":7,"delta":true,"comp":true}`,
		`{"type":"ok","wire":-3,"delta":true,"comp":true}`,
		`{"type":"ok","wire":1,"comp":true}`,
		`{"type":"ok","wire":1,"delta":true}`,
	} {
		if s, err := Open(strings.NewReader(grant+"\n"), &sink, "w", "w"); !errors.Is(err, ErrRefused) {
			t.Errorf("grant %s: session %+v, err %v, want ErrRefused", grant, s, err)
		}
	}
}

func TestSessionPackAndCarries(t *testing.T) {
	base, raw := growingDoc(100), growingDoc(110)
	var s Session
	if got := s.Pack(nil, raw).Flags; got != FlagCompressed {
		t.Errorf("Pack without a base chose flags %#x, want compressed", got)
	}
	p := s.Pack(base, raw)
	if p.Flags != FlagDelta {
		t.Errorf("Pack with a base chose flags %#x, want a delta", p.Flags)
	}
	if got, err := p.Resolve(base); err != nil || !bytes.Equal(got, raw) {
		t.Errorf("packed delta does not resolve: %v", err)
	}
	if got := s.Pack(nil, []byte(`{}`)).Flags; got != 0 {
		t.Errorf("Pack of a document compression cannot shrink chose flags %#x, want plain", got)
	}
	if s.Pack(base, nil) != nil {
		t.Errorf("nil payload mishandled")
	}
}

// FuzzAccept feeds the coordinator's one pre-grant decoder an arbitrary
// first line plus whatever follows it on the connection, with an
// arbitrary system payload: every reply is one JSON line, and every
// grant is the golden grant carrying that system.
func FuzzAccept(f *testing.F) {
	beads := []byte(`{"beads":3}`)
	for _, g := range helloGolden {
		f.Add([]byte(g.offer), beads)
	}
	frame, _ := appendRequest(nil, &Request{Type: MsgNext}, false)
	var framed bytes.Buffer
	rw := trace.NewRecordWriter(&framed, false)
	_ = rw.Append(frame)
	_ = rw.Flush()
	f.Add(append([]byte(offerGolden), framed.Bytes()...), beads)
	f.Add([]byte(`{"type":"hello","name":"f","wire":99}`+"\n"+`{"type":"next"}`+"\n"), []byte(`{"a": [1, 2]}`))
	f.Add([]byte(`{"type":"hello","wire":-1,"noComp":true}`+"\n"), beads)
	f.Add([]byte("not json\n"), beads)
	f.Add([]byte(`{"type":"next"}`+"\n"), []byte("not json"))
	f.Add([]byte(`{"type":"hello"`), []byte(nil))
	f.Fuzz(func(t *testing.T, in, system []byte) {
		var out bytes.Buffer
		s, err := Accept(bytes.NewReader(in), &out, system)
		reply := out.Bytes()
		if len(reply) > 0 && (bytes.Count(reply, []byte("\n")) != 1 || reply[len(reply)-1] != '\n') {
			t.Fatalf("reply is not one line: %q", reply)
		}
		var resp Response
		if len(reply) > 0 {
			if err := json.Unmarshal(reply, &resp); err != nil {
				t.Fatalf("reply %q is not JSON: %v", reply, err)
			}
		}
		if err != nil {
			if len(reply) > 0 && resp.Err == "" {
				t.Fatalf("Accept failed (%v) but granted %q", err, reply)
			}
			return
		}
		if want := grantLine(system); string(reply) != want {
			t.Fatalf("grant %q, want %q", reply, want)
		}
		// Whatever followed the hello belongs to the codec.
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
		{Type: MsgHello, Name: "w1", Site: "site-a"},
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
		{Type: MsgOK},
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
