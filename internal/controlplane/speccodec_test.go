package controlplane

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"cool"
)

// TestCanonicalSpecEdges holds the appender to json.Marshal where
// encoding/json's rules have edges: the 'f'/'e' cutoffs and the e-07
// trim, signed zero, the smallest subnormal, the largest double,
// 17-digit values, the weight omitempty, HTML-safe and invalid-UTF-8
// strings, and the errors on NaN and ±Inf.
func TestCanonicalSpecEdges(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 1e20, 1e21,
		1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2, 123.45678901234567,
		-9.999999999999999e-7, 1.0000000000000002, 3}
	var specs []DeploymentSpec
	for _, f := range floats {
		specs = append(specs, DeploymentSpec{Rho: f, DetectProb: f,
			Sensors: []SensorSpec{{X: f, Y: -f, Range: f}},
			Targets: []TargetSpec{{X: f, Y: f, Weight: f}}})
	}
	for _, u := range []string{"", UtilityTargets, "a<b", "x&y", `q"uote`, "back\\slash",
		"line sep", "para sep", "bad\xffutf8", "tab\tnl\n", "del\x7f", "é"} {
		specs = append(specs, DeploymentSpec{Rho: 3, Utility: u,
			Sensors: []SensorSpec{}, Targets: []TargetSpec{{X: 1, Y: 2, Weight: 2}, {X: 3, Y: 4}}})
	}
	specs = append(specs, DeploymentSpec{Rho: 1}) // nil slices encode as null
	for i := range specs {
		want, err := json.Marshal(&specs[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendSpec(nil, &specs[i])
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("spec %d: appendSpec = %s, %v\njson.Marshal = %s", i, got, err, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		spec := DeploymentSpec{Rho: 3, Sensors: []SensorSpec{{X: 1, Y: bad, Range: 2}}}
		_, werr := json.Marshal(&spec)
		_, gerr := appendSpec(nil, &spec)
		if werr == nil || gerr == nil || gerr.Error() != werr.Error() {
			t.Errorf("%v: appendSpec error %v, json.Marshal error %v", bad, gerr, werr)
		}
		if _, err := Fingerprint(spec); err == nil {
			t.Errorf("%v: Fingerprint accepted a non-finite spec", bad)
		}
	}
}

// TestSpecCodecFastPaths pins that the cursor serves what the daemon
// reads: a submit json.Marshal wrote, the same submit as json.Encoder
// writes it (with a trailing newline), and every submit record of the
// recorded session.
func TestSpecCodecFastPaths(t *testing.T) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(fullSubmitRequest()); err != nil {
		t.Fatal(err)
	}
	encoded := buf.Bytes()
	for _, payload := range [][]byte{encoded[:len(encoded)-1], encoded} {
		got, ok := decodeSubmitFast(payload)
		if !ok {
			t.Fatalf("cursor declined %q", payload)
		}
		if want, err := decodeRequestJSON(payload); err != nil || !sameRequest(got, want) {
			t.Fatalf("cursor decoded %+v, encoding/json %+v (%v)", got, want, err)
		}
	}
	for _, ev := range recordedSessionEvents(t) {
		if ev.submit == nil {
			continue
		}
		if _, ok := decodeSubmitRecordFast(ev.record.Payload); !ok {
			t.Fatalf("cursor declined record lsn=%d", ev.record.LSN)
		}
	}
}

// fullSubmitRequest is a submit with every optional field set.
func fullSubmitRequest() *Request {
	spec := testSpec(4, 3, 0.5, 7)
	spec.Utility, spec.DetectProb = UtilityDetection, 0.4
	spec.Targets[1].Weight = 0
	spec.Sensors[2].X = 1e-7
	return &Request{Op: OpSubmit, Tenant: "acme",
		Submit: &SubmitRequest{Name: "field-a", Parent: "deadbeef", Spec: spec}}
}

// sameSpec reports whether two specs are equal field by field, floats
// compared by their bits and a nil slice told apart from an empty one.
func sameSpec(a, b *DeploymentSpec) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.Rho, b.Rho) || a.Utility != b.Utility || !same(a.DetectProb, b.DetectProb) ||
		len(a.Sensors) != len(b.Sensors) || (a.Sensors == nil) != (b.Sensors == nil) ||
		len(a.Targets) != len(b.Targets) || (a.Targets == nil) != (b.Targets == nil) {
		return false
	}
	for i, s := range a.Sensors {
		t := b.Sensors[i]
		if !same(s.X, t.X) || !same(s.Y, t.Y) || !same(s.Range, t.Range) {
			return false
		}
	}
	for j, s := range a.Targets {
		t := b.Targets[j]
		if !same(s.X, t.X) || !same(s.Y, t.Y) || !same(s.Weight, t.Weight) {
			return false
		}
	}
	return true
}

// sameRequest compares two decoded submit requests, floats by bits.
func sameRequest(a, b *Request) bool {
	return a.Op == b.Op && a.Tenant == b.Tenant && a.Submit != nil && b.Submit != nil &&
		a.Plan == nil && b.Plan == nil && a.Replan == nil && b.Replan == nil &&
		a.Query == nil && b.Query == nil && a.List == nil && b.List == nil &&
		a.Control == nil && b.Control == nil && a.Watch == nil && b.Watch == nil &&
		a.Submit.Name == b.Submit.Name && a.Submit.Parent == b.Submit.Parent &&
		sameSpec(&a.Submit.Spec, &b.Submit.Spec)
}

// specCodecSeeds is the committed FuzzSpecCodec seed corpus: canonical
// submit requests and records, and departures from them that the
// cursor must either decline or decode as encoding/json does — numbers
// strconv.ParseFloat takes but JSON does not, whitespace, escaped
// strings, reordered keys, longhand numbers, the zero values
// json.Marshal omits, and a key after the spec.
func specCodecSeeds(tb testing.TB) [][]byte {
	req, err := json.Marshal(fullSubmitRequest())
	if err != nil {
		tb.Fatal(err)
	}
	var rec []byte
	for _, ev := range recordedSessionEvents(tb) {
		if ev.submit != nil && ev.submit.Parent != "" {
			rec = ev.record.Payload
		}
	}
	variant := func(b []byte, old, new string) []byte {
		if !bytes.Contains(b, []byte(old)) {
			tb.Fatalf("seed base lacks %q", old)
		}
		return bytes.Replace(b, []byte(old), []byte(new), 1)
	}
	seeds := [][]byte{req, rec}
	for _, num := range []string{"01", "1.", ".5", "+1", "1e", "-", "0x1p3", "Inf", "1E5", "-0", "1e400", "0.50"} {
		seeds = append(seeds, variant(req, `"rho":0.5`, `"rho":`+num))
	}
	seeds = append(seeds,
		variant(req, `"op":"submit"`, `"op": "submit"`),
		variant(req, `,"sensors":[{`, `,"sensors":[ {`),
		variant(req, `"tenant":"acme"`, `"tenant":"\u0061cme"`),
		variant(req, `"op":"submit","tenant":"acme"`, `"tenant":"acme","op":"submit"`),
		variant(req, `"name":"field-a","parent":"deadbeef"`, `"parent":"deadbeef","name":"field-a"`),
		variant(req, `"spec":{"rho":0.5,`, `"spec":{"Rho":0.5,`),
		variant(req, `}}}`, `}}} `),
		variant(rec, `"seq":4`, `"seq":4.0`),
		variant(rec, `"rho":3,`, `"rho":3,"detect_prob":0,`),
		variant(rec, `"rho":3`, `"rho":3.0`),
		variant(rec, `"weight":`, `"weight":0,"w":`),
		variant(rec, `"tenant":"acme",`, `"tenant":"acme","name":"",`),
		append(variant(req[:len(req)-2], `"name":"field-a",`, ``), `,"name":"field-a"}}`...),
	)
	return seeds
}

// fuzzSpec builds a spec from fuzz bytes: its shape from the first
// bytes, then every float from the raw bits of the next eight bytes,
// so the appender meets subnormals, huge exponents, signed zeros, NaN
// and ±Inf.
func fuzzSpec(data []byte) DeploymentSpec {
	at := 0
	next := func() byte {
		if at >= len(data) {
			return 0
		}
		at++
		return data[at-1]
	}
	float := func() float64 {
		var b [8]byte
		for i := range b {
			b[i] = next()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	shape := next()
	spec := DeploymentSpec{}
	spec.Utility = []string{"", UtilityTargets, UtilityDetection, "<&>", " ", string(data[:min(len(data), 3)])}[shape%6]
	if shape&0x40 != 0 {
		spec.Sensors = []SensorSpec{}
	}
	if shape&0x80 != 0 {
		spec.Targets = []TargetSpec{}
	}
	spec.Rho = float()
	if shape&0x08 != 0 {
		spec.DetectProb = float()
	}
	for i := int(next() % 4); i > 0; i-- {
		spec.Sensors = append(spec.Sensors, SensorSpec{X: float(), Y: float(), Range: float()})
	}
	for j := int(next() % 4); j > 0; j-- {
		t := TargetSpec{X: float(), Y: float()}
		if next()&1 != 0 {
			t.Weight = float()
		}
		spec.Targets = append(spec.Targets, t)
	}
	return spec
}

// allPlain reports whether the cursor reads s as encoding/json wrote it.
func allPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plain(s[i]) {
			return false
		}
	}
	return true
}

// mutate returns p with one byte replaced, both chosen by data.
func mutate(p, data []byte) []byte {
	if len(p) == 0 || len(data) < 3 {
		return p
	}
	out := append([]byte(nil), p...)
	out[int(binary.LittleEndian.Uint16(data[len(data)-3:]))%len(out)] = data[len(data)-1]
	return out
}

// FuzzSpecCodec holds the spec codec to encoding/json, comparing every
// float by its bits:
//   - on a spec built from the input, appendSpec writes json.Marshal's
//     bytes, or fails with its error;
//   - on the input as a payload, and on canonical submit requests and
//     records of that spec with one byte changed, DecodeRequest accepts
//     and decodes exactly what the encoding/json path does, and
//     decodeSubmitRecordFast accepts only what decodeStrictJSON accepts
//     and decodes it the same.
//
// Seeds live in testdata/fuzz/FuzzSpecCodec (regenerate with
// `go test -run TestGoldenWire -update`).
func FuzzSpecCodec(f *testing.F) {
	for _, seed := range specCodecSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec := fuzzSpec(data)
		want, werr := json.Marshal(&spec)
		got, gerr := appendSpec(nil, &spec)
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() || !bytes.Equal(got, want) {
			t.Fatalf("appendSpec = %s, %v\njson.Marshal = %s, %v", got, gerr, want, werr)
		}

		payloads := [][]byte{data}
		if werr == nil {
			req, err := json.Marshal(&Request{Op: OpSubmit, Tenant: "t", Submit: &SubmitRequest{Name: "n", Spec: spec}})
			if err != nil {
				t.Fatal(err)
			}
			rec, err := json.Marshal(&SubmitRecord{Tenant: "t", Parent: "p", Fingerprint: fingerprintOf(want), Seq: 1, Spec: spec})
			if err != nil {
				t.Fatal(err)
			}
			if allPlain(spec.Utility) {
				if _, ok := decodeSubmitFast(req); !ok {
					t.Fatalf("cursor declined json.Marshal's submit: %s", req)
				}
				if _, ok := decodeSubmitRecordFast(rec); !ok {
					t.Fatalf("cursor declined json.Marshal's record: %s", rec)
				}
			}
			payloads = append(payloads, req, rec, mutate(req, data), mutate(rec, data))
		}
		for _, p := range payloads {
			checkRequestDecode(t, p)
			checkRecordDecode(t, p)
		}
	})
}

// checkRequestDecode compares DecodeRequest with the encoding/json path.
func checkRequestDecode(t *testing.T, p []byte) {
	t.Helper()
	got, gerr := DecodeRequest(p)
	want, werr := decodeRequestJSON(p)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("DecodeRequest error %v, encoding/json error %v on %q", gerr, werr, p)
	}
	if gerr == nil && got.Op == OpSubmit && !sameRequest(got, want) {
		t.Fatalf("DecodeRequest and encoding/json decode %q differently", p)
	}
}

// checkRecordDecode compares the fast record decoder with
// decodeStrictJSON.
func checkRecordDecode(t *testing.T, p []byte) {
	t.Helper()
	got, ok := decodeSubmitRecordFast(p)
	if !ok {
		return
	}
	var want SubmitRecord
	if err := decodeStrictJSON(p, &want); err != nil {
		t.Fatalf("fast record decoder accepted what decodeStrictJSON rejects (%v): %q", err, p)
	}
	if got.Tenant != want.Tenant || got.Name != want.Name || got.Parent != want.Parent ||
		got.Fingerprint != want.Fingerprint || got.Seq != want.Seq || !sameSpec(&got.Spec, &want.Spec) {
		t.Fatalf("fast record decoder and decodeStrictJSON decode %q differently", p)
	}
}

// fieldSpec is e2ebench's deployment shape: n uniform sensors on a
// 1000×1000 field at mean coverage degree 10, and n/10 targets.
func fieldSpec(tb testing.TB, n int) DeploymentSpec {
	net, err := cool.Deploy(cool.DeployConfig{
		Field:   cool.NewField(1000),
		Sensors: n,
		Targets: n / 10,
		Range:   math.Sqrt(10 * 1000 * 1000 / (math.Pi * float64(n))),
		Layout:  cool.LayoutUniform,
	}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	spec := DeploymentSpec{Rho: 3}
	for _, s := range net.Sensors() {
		spec.Sensors = append(spec.Sensors, SensorSpec{X: s.Pos.X, Y: s.Pos.Y, Range: s.Range})
	}
	for _, t := range net.Targets() {
		spec.Targets = append(spec.Targets, TargetSpec{X: t.Pos.X, Y: t.Pos.Y})
	}
	return spec
}

var benchSink any

// BenchmarkAdmission times the spec codec's three uses on e2ebench's
// field shape, each beside the encoding/json path it replaces:
// DecodeRequest of a submit, the admission encoding (fingerprint and
// WAL record), and Restore of one submit record. decode-late is
// DecodeRequest of a submit that departs from json.Marshal's shape only
// after the spec (its name key follows it), so the cursor reads the
// whole spec before it declines and encoding/json decodes it again.
func BenchmarkAdmission(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		spec := fieldSpec(b, n)
		payload, err := json.Marshal(&Request{Op: OpSubmit, Tenant: "acme", Submit: &SubmitRequest{Name: "field", Spec: spec}})
		if err != nil {
			b.Fatal(err)
		}
		norm, err := Normalize(spec)
		if err != nil {
			b.Fatal(err)
		}
		fp, err := Fingerprint(norm)
		if err != nil {
			b.Fatal(err)
		}
		sub := SubmitRecord{Tenant: "acme", Name: "field", Fingerprint: fp, Seq: 1, Spec: norm}
		record, err := json.Marshal(&sub)
		if err != nil {
			b.Fatal(err)
		}
		recs := []WALRecord{{LSN: 1, Kind: RecordSubmit, Payload: record}}
		late := append(bytes.Replace(payload[:len(payload)-2], []byte(`{"name":"field",`), []byte(`{`), 1),
			`,"name":"field"}}`...)
		if _, ok := decodeSubmitFast(late); ok {
			b.Fatalf("cursor accepted %.80q…", late)
		}
		if req, err := DecodeRequest(late); err != nil || req.Submit.Name != "field" {
			b.Fatalf("late departure decodes to %v, %v", req, err)
		}

		b.Run(fmt.Sprintf("n=%d/decode", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink, _ = DecodeRequest(payload)
			}
		})
		b.Run(fmt.Sprintf("n=%d/decode-late", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink, _ = DecodeRequest(late)
			}
		})
		b.Run(fmt.Sprintf("n=%d/decode-json", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink, _ = decodeRequestJSON(payload)
			}
		})
		b.Run(fmt.Sprintf("n=%d/encode", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				canonical, fp, _ := canonicalFingerprint(&norm)
				rec := SubmitRecord{Tenant: sub.Tenant, Name: sub.Name, Fingerprint: fp, Seq: 1}
				benchSink = appendSubmitRecord(make([]byte, 0, len(canonical)+256), &rec, canonical)
			}
		})
		b.Run(fmt.Sprintf("n=%d/encode-json", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				canonical, _ := json.Marshal(&norm)
				rec := sub
				rec.Fingerprint = fingerprintOf(canonical)
				benchSink, _ = json.Marshal(&rec)
			}
		})
		b.Run(fmt.Sprintf("n=%d/replay", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NewServer(Config{}).Restore(&Recovered{Records: recs}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/replay-strict", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var rec SubmitRecord
				if err := decodeStrictJSON(record, &rec); err != nil {
					b.Fatal(err)
				}
				if err := NewServer(Config{}).replaySubmit(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
