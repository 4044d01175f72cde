package controlplane

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Version: Version1, Type: FrameHello, Payload: []byte(`{"max_version":1}`)},
		{Version: Version1, Type: FrameRequest, Payload: []byte(`{"op":"list","tenant":"t"}`)},
		{Version: Version1, Type: FrameError, Payload: nil},
	}
	for _, f := range cases {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if got.Version != f.Version || got.Type != f.Type || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("round trip mismatch: wrote %+v read %+v", f, got)
		}
	}
}

func TestReadFrameCleanEOF(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty input: want io.EOF, got %v", err)
	}
}

func TestReadFrameTruncatedHeader(t *testing.T) {
	for n := 1; n < headerLen; n++ {
		data := make([]byte, n)
		data[0] = Version1
		_, err := ReadFrame(bytes.NewReader(data))
		if !errors.Is(err, ErrTruncatedFrame) {
			t.Fatalf("%d header bytes: want ErrTruncatedFrame, got %v", n, err)
		}
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	data := AppendFrame(nil, Frame{Version: Version1, Type: FrameRequest, Payload: []byte(`{"op":"list"}`)})
	for cut := headerLen; cut < len(data); cut++ {
		_, err := ReadFrame(bytes.NewReader(data[:cut]))
		if !errors.Is(err, ErrTruncatedFrame) {
			t.Fatalf("cut at %d: want ErrTruncatedFrame, got %v", cut, err)
		}
	}
}

func TestReadFrameBadVersion(t *testing.T) {
	for _, v := range []byte{0, MaxVersion + 1, 0x7f, 0xff} {
		data := AppendFrame(nil, Frame{Version: Version1, Type: FrameHello})
		data[0] = v
		_, err := ReadFrame(bytes.NewReader(data))
		if !errors.Is(err, ErrBadVersion) {
			t.Fatalf("version %d: want ErrBadVersion, got %v", v, err)
		}
	}
}

func TestReadFrameBadType(t *testing.T) {
	for _, ft := range []byte{0, byte(maxFrameType) + 1, 0xff} {
		data := AppendFrame(nil, Frame{Version: Version1, Type: FrameHello})
		data[1] = ft
		_, err := ReadFrame(bytes.NewReader(data))
		if !errors.Is(err, ErrBadFrameType) {
			t.Fatalf("type %d: want ErrBadFrameType, got %v", ft, err)
		}
	}
}

// TestReadFrameOversize feeds hostile length fields — including the
// 4 GiB maximum — and wants a typed error before any payload
// allocation (the MaxPeriod decoder-panic discipline: attacker bytes
// never size an allocation).
func TestReadFrameOversize(t *testing.T) {
	for _, n := range []uint32{MaxFrameBytes + 1, 1 << 30, 0xffffffff} {
		hdr := []byte{Version1, byte(FrameRequest), 0, 0, 0, 0}
		binary.BigEndian.PutUint32(hdr[2:], n)
		_, err := ReadFrame(bytes.NewReader(hdr))
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("length %d: want ErrFrameTooLarge, got %v", n, err)
		}
	}
	var huge bytes.Buffer
	err := WriteFrame(&huge, Frame{Version: Version1, Type: FrameRequest, Payload: make([]byte, MaxFrameBytes+1)})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("write side: want ErrFrameTooLarge, got %v", err)
	}
}

func TestNegotiateVersion(t *testing.T) {
	if _, err := NegotiateVersion(MinVersion - 1); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("below min: want ErrBadVersion, got %v", err)
	}
	if v, err := NegotiateVersion(MaxVersion); err != nil || v != MaxVersion {
		t.Fatalf("exact: got (%d, %v)", v, err)
	}
	if v, err := NegotiateVersion(MaxVersion + 7); err != nil || v != MaxVersion {
		t.Fatalf("future client: want downgrade to %d, got (%d, %v)", MaxVersion, v, err)
	}
}

func TestDecodeRequestValidation(t *testing.T) {
	cases := []struct {
		name, payload string
	}{
		{"not json", `{{{`},
		{"missing tenant", `{"op":"list","list":{}}`},
		{"unknown op", `{"op":"dance","tenant":"t"}`},
		{"missing body", `{"op":"plan","tenant":"t"}`},
		{"wrong body", `{"op":"plan","tenant":"t","list":{}}`},
		{"two bodies", `{"op":"plan","tenant":"t","plan":{"fingerprint":"x"},"list":{}}`},
	}
	for _, c := range cases {
		if _, err := DecodeRequest([]byte(c.payload)); err == nil {
			t.Errorf("%s: want error, got nil", c.name)
		}
	}
	req, err := DecodeRequest([]byte(`{"op":"list","tenant":"t","list":{}}`))
	if err != nil || req.Op != OpList || req.Tenant != "t" {
		t.Fatalf("valid request rejected: %v", err)
	}
}

func TestDecodeWireErrorNeverNil(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte(`garbage`), []byte(`{}`), []byte(`{"code":"rejected","message":"m"}`)} {
		we := DecodeWireError(payload)
		if we == nil || we.Code == "" {
			t.Fatalf("payload %q: want non-nil typed error, got %+v", payload, we)
		}
	}
}

// FuzzWireDecode hammers the frame and request decoders with hostile
// bytes: they must never panic, never allocate beyond MaxFrameBytes,
// and every accepted frame must re-encode byte-identically to the
// consumed prefix. Seeds live in testdata/fuzz/FuzzWireDecode
// (regenerate with `go test -run TestGoldenWire -update`).
func FuzzWireDecode(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly — exactly what hostile input gets
		}
		if len(fr.Payload) > MaxFrameBytes {
			t.Fatalf("accepted frame with %d-byte payload beyond MaxFrameBytes", len(fr.Payload))
		}
		consumed := headerLen + len(fr.Payload)
		if re := AppendFrame(nil, fr); !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("re-encode mismatch: consumed %x, re-encoded %x", data[:consumed], re)
		}
		// Payload decoders must be panic-free on arbitrary accepted
		// frames; errors are fine.
		switch fr.Type {
		case FrameHello:
			DecodeHello(fr.Payload)
		case FrameHelloAck:
			DecodeHelloAck(fr.Payload)
		case FrameRequest:
			DecodeRequest(fr.Payload)
		case FrameResponse:
			DecodeResponse(fr.Payload)
		case FrameError:
			DecodeWireError(fr.Payload)
		case FramePush:
			DecodeWatchEvent(fr.Payload)
		}
	})
}

// fuzzSeeds is the committed seed corpus, shared between f.Add and the
// -update regeneration of testdata/fuzz/FuzzWireDecode so the
// on-disk corpus can never drift from the in-code one.
func fuzzSeeds() [][]byte {
	valid := func(t FrameType, payload string) []byte {
		return AppendFrame(nil, Frame{Version: Version1, Type: t, Payload: []byte(payload)})
	}
	oversize := []byte{Version1, byte(FrameRequest), 0xff, 0xff, 0xff, 0xff}
	badVersion := valid(FrameHello, `{"max_version":1}`)
	badVersion = append([]byte{}, badVersion...)
	badVersion[0] = 0x7f
	badType := []byte{Version1, 0x09, 0, 0, 0, 0}
	truncated := valid(FrameRequest, `{"op":"list","tenant":"t","list":{}}`)
	return [][]byte{
		valid(FrameHello, `{"max_version":1,"client":"fuzz"}`),
		valid(FrameRequest, `{"op":"list","tenant":"t","list":{}}`),
		valid(FrameRequest, `{"op":"submit","tenant":"t","submit":{"spec":{"rho":3,"sensors":[{"x":1,"y":2,"range":3}],"targets":[{"x":1,"y":1}]}}}`),
		valid(FrameResponse, `{"op":"plan","plan":{"engine":"incremental","schedule":{"mode":"placement","period":4,"assign":[0,1]},"utility":2,"mode":"placement","slots":4}}`),
		valid(FrameRequest, `{"op":"plan","tenant":"t","plan":{"fingerprint":"deadbeef","engine":"hef","objective":"lifetime"}}`),
		valid(FrameError, `{"code":"rejected","message":"nope"}`),
		valid(FrameRequest, `not json at all`),
		valid(FrameHelloAck, ``),
		valid(FrameRequest, `{"op":"watch","tenant":"t","watch":{"fingerprint":"deadbeef","watch_op":"subscribe"}}`),
		valid(FramePush, `{"fingerprint":"deadbeef","seq":3,"kind":"replan","replan":{"changed":1,"dirty":2,"utility_before":2,"utility":1.5,"schedule":{"mode":"placement","period":4,"assign":[0,1]}}}`),
		valid(FramePush, `not a watch event`),
		{},                              // empty input
		{Version1, byte(FrameHello), 0}, // truncated header
		badVersion,
		badType,
		oversize,
		truncated[:len(truncated)-5], // truncated payload
		canonicalSubmit(),            // the shape the spec codec's cursor reads
	}
}

// canonicalSubmit is a submit frame as json.Marshal writes it, with
// every optional field set, so fuzzing reaches the cursor's fast path.
func canonicalSubmit() []byte {
	payload, _ := json.Marshal(fullSubmitRequest()) // a finite spec always encodes
	return AppendFrame(nil, Frame{Version: Version1, Type: FrameRequest, Payload: payload})
}

// BenchmarkServeSchedule times what a schedule query costs the server
// once it holds the deployment's lock: materializing the committed
// schedule and encoding the query answer's frame. The field is
// e2ebench's n = 10⁴ shape (1000×1000, m = 10³, mean degree 10,
// detection p = 0.4), planned at ρ = 3 (placement) and ρ = 1/3
// (removal).
func BenchmarkServeSchedule(b *testing.B) {
	for _, c := range []struct {
		name string
		rho  float64
	}{{"rho=3", 3}, {"rho=1:3", 1.0 / 3}} {
		spec := fieldSpec(b, 10000)
		spec.Rho, spec.Utility, spec.DetectProb = c.rho, UtilityDetection, 0.4
		norm, err := Normalize(spec)
		if err != nil {
			b.Fatal(err)
		}
		planner, err := BuildPlanner(norm)
		if err != nil {
			b.Fatal(err)
		}
		inc, err := planner.Incremental()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sched, err := inc.Schedule()
				if err != nil {
					b.Fatal(err)
				}
				f, err := encodeFrame(Version1, FrameResponse, &Response{Op: OpQuery,
					Query: &QueryResponse{Schedule: sched}})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = f
			}
		})
	}
}
