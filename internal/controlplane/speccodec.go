package controlplane

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"strconv"
)

// The spec codec of the admission path. A normalized spec has one
// encoding, its canonical bytes: exactly what json.Marshal writes for
// it. Admission appends them once, their SHA-256 is the snapshot
// fingerprint, and the same bytes become the WAL record's spec, so what
// was fingerprinted is what is logged and replayed. A cursor reads the
// shape encoding/json writes back without reflection; on any other
// input it declines and encoding/json decides, so the fast path never
// changes what is accepted or what it decodes to. Replay re-derives a
// record's fingerprint with the same appender. FuzzSpecCodec holds both
// directions to encoding/json.

// appendFloat appends f as encoding/json encodes a float64: the
// shortest round-trip digits, in 'f' form when 1e-6 <= |f| < 1e21 (or
// f is zero) and in 'e' form otherwise, with a two-digit negative
// exponent trimmed (e-07 becomes e-7). NaN and ±Inf fail with the
// error json.Marshal returns.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// plain reports whether encoding/json writes byte c into a string
// as itself, and reads it back as itself: printable ASCII other than
// the quote, the backslash and the HTML-escaped <, > and &.
func plain(c byte) bool {
	return c >= 0x20 && c <= 0x7e && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// appendString appends s quoted as encoding/json quotes it. A string of
// plain bytes is copied; any other takes json.Marshal's own escaping.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain(s[i]) {
			quoted, _ := json.Marshal(s) // a string always encodes
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendSpec appends the canonical bytes of spec: those of
// json.Marshal(spec), with its omitempty rules for utility,
// detect_prob and weight, and null for a nil slice. Like json.Marshal
// it fails on the first non-finite float.
func appendSpec(dst []byte, spec *DeploymentSpec) ([]byte, error) {
	var err error
	field := func(key string, f float64) {
		dst = append(dst, key...)
		if err == nil {
			dst, err = appendFloat(dst, f)
		}
	}
	field(`{"rho":`, spec.Rho)
	if spec.Utility != "" {
		dst = appendString(append(dst, `,"utility":`...), spec.Utility)
	}
	if spec.DetectProb != 0 {
		field(`,"detect_prob":`, spec.DetectProb)
	}
	dst = append(dst, `,"sensors":`...)
	if spec.Sensors == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, s := range spec.Sensors {
			if i > 0 {
				dst = append(dst, ',')
			}
			field(`{"x":`, s.X)
			field(`,"y":`, s.Y)
			field(`,"range":`, s.Range)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"targets":`...)
	if spec.Targets == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for j, t := range spec.Targets {
			if j > 0 {
				dst = append(dst, ',')
			}
			field(`{"x":`, t.X)
			field(`,"y":`, t.Y)
			if t.Weight != 0 {
				field(`,"weight":`, t.Weight)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if err != nil {
		return nil, err
	}
	return append(dst, '}'), nil
}

// canonicalSpec returns the canonical bytes of spec in a buffer sized
// for them.
func canonicalSpec(spec *DeploymentSpec) ([]byte, error) {
	// Coordinates at full precision take about 75 bytes per sensor and
	// 45 per target.
	return appendSpec(make([]byte, 0, 64+80*len(spec.Sensors)+48*len(spec.Targets)), spec)
}

// canonicalFingerprint encodes a spec's canonical bytes and digests
// them into its fingerprint.
func canonicalFingerprint(spec *DeploymentSpec) ([]byte, string, error) {
	canonical, err := canonicalSpec(spec)
	if err != nil {
		return nil, "", err
	}
	return canonical, fingerprintOf(canonical), nil
}

// fingerprintOf is the snapshot identity of canonical spec bytes: their
// hex SHA-256.
func fingerprintOf(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
}

// appendSubmitRecord appends the payload of a RecordSubmit around a
// spec that is already encoded: the bytes of json.Marshal(rec) when
// rec.Spec encodes to spec. rec.Spec itself is not read.
func appendSubmitRecord(dst []byte, rec *SubmitRecord, spec []byte) []byte {
	dst = appendString(append(dst, `{"tenant":`...), rec.Tenant)
	if rec.Name != "" {
		dst = appendString(append(dst, `,"name":`...), rec.Name)
	}
	if rec.Parent != "" {
		dst = appendString(append(dst, `,"parent":`...), rec.Parent)
	}
	dst = appendString(append(dst, `,"fingerprint":`...), rec.Fingerprint)
	dst = strconv.AppendUint(append(dst, `,"seq":`...), rec.Seq, 10)
	dst = append(append(dst, `,"spec":`...), spec...)
	return append(dst, '}')
}

// cursor reads the shape encoding/json writes for the submit request
// and the submit record: keys in struct order and exact case, no
// whitespace but after the value, RFC 8259 numbers parsed as
// encoding/json parses them, and strings of plain bytes with no
// escapes. Each method reports false when the input departs from that
// shape, and the caller declines.
type cursor struct {
	b []byte
	i int
}

// lit consumes s if the input continues with it.
func (c *cursor) lit(s string) bool {
	if len(c.b)-c.i < len(s) || string(c.b[c.i:c.i+len(s)]) != s {
		return false
	}
	c.i += len(s)
	return true
}

// end reports whether only JSON whitespace is left, as json.Encoder
// leaves a newline after the value.
func (c *cursor) end() bool {
	for ; c.i < len(c.b); c.i++ {
		if b := c.b[c.i]; b != ' ' && b != '\t' && b != '\n' && b != '\r' {
			return false
		}
	}
	return true
}

// text consumes a string of plain bytes into *s.
func (c *cursor) text(s *string) bool {
	if c.i >= len(c.b) || c.b[c.i] != '"' {
		return false
	}
	for j := c.i + 1; j < len(c.b); j++ {
		if c.b[j] == '"' {
			*s = string(c.b[c.i+1 : j])
			c.i = j + 1
			return true
		}
		if !plain(c.b[j]) {
			return false
		}
	}
	return false
}

// number consumes an RFC 8259 number and returns its text.
func (c *cursor) number() ([]byte, bool) {
	b, i := c.b, c.i
	digits := func() int {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i - start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if digits() == 0 {
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return nil, false
		}
	}
	text := b[c.i:i]
	c.i = i
	return text, true
}

// float consumes a number into *f as encoding/json decodes a float64.
func (c *cursor) float(f *float64) bool {
	text, ok := c.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		return false
	}
	*f = v
	return true
}

// optFloat consumes the optional float field key into *f when the
// input holds it.
func (c *cursor) optFloat(key string, f *float64) bool {
	return !c.lit(key) || c.float(f)
}

// optText is optFloat for an optional string field.
func (c *cursor) optText(key string, s *string) bool {
	return !c.lit(key) || c.text(s)
}

// array consumes the elements of an array up to its closing bracket,
// each by elem; the opening bracket is already consumed.
func (c *cursor) array(elem func() bool) bool {
	if c.lit("]") {
		return true
	}
	for elem() {
		if c.lit("]") {
			return true
		}
		if !c.lit(",") {
			return false
		}
	}
	return false
}

// spec consumes a DeploymentSpec object. A null array stays nil and an
// empty one is empty, as encoding/json decodes them.
func (c *cursor) spec(s *DeploymentSpec) bool {
	if !c.lit(`{"rho":`) || !c.float(&s.Rho) || !c.optText(`,"utility":`, &s.Utility) ||
		!c.optFloat(`,"detect_prob":`, &s.DetectProb) || !c.lit(`,"sensors":`) {
		return false
	}
	if !c.lit("null") {
		s.Sensors = []SensorSpec{}
		if !c.lit("[") || !c.array(func() bool {
			var e SensorSpec
			ok := c.lit(`{"x":`) && c.float(&e.X) && c.lit(`,"y":`) && c.float(&e.Y) &&
				c.lit(`,"range":`) && c.float(&e.Range) && c.lit("}")
			s.Sensors = append(s.Sensors, e)
			return ok
		}) {
			return false
		}
	}
	if !c.lit(`,"targets":`) {
		return false
	}
	if !c.lit("null") {
		s.Targets = []TargetSpec{}
		if !c.lit("[") || !c.array(func() bool {
			var e TargetSpec
			ok := c.lit(`{"x":`) && c.float(&e.X) && c.lit(`,"y":`) && c.float(&e.Y) &&
				c.optFloat(`,"weight":`, &e.Weight) && c.lit("}")
			s.Targets = append(s.Targets, e)
			return ok
		}) {
			return false
		}
	}
	return c.lit("}")
}

// decodeSubmitFast decodes a submit request in the shape json.Marshal
// writes it, as DecodeRequest's encoding/json path would, or reports
// false. Any other request fails the first literal.
func decodeSubmitFast(payload []byte) (*Request, bool) {
	c := cursor{b: payload}
	if !c.lit(`{"op":"submit","tenant":`) {
		return nil, false
	}
	req := &Request{Op: OpSubmit, Submit: &SubmitRequest{}}
	sub := req.Submit
	if !c.text(&req.Tenant) || req.Tenant == "" || !c.lit(`,"submit":{`) ||
		c.lit(`"name":`) && !(c.text(&sub.Name) && c.lit(",")) ||
		c.lit(`"parent":`) && !(c.text(&sub.Parent) && c.lit(",")) ||
		!c.lit(`"spec":`) || !c.spec(&sub.Spec) || !c.lit("}}") || !c.end() {
		return nil, false
	}
	return req, true
}

// decodeSubmitRecordFast decodes a RecordSubmit payload in the shape
// json.Marshal writes it, as decodeStrictJSON would, or reports false.
func decodeSubmitRecordFast(payload []byte) (SubmitRecord, bool) {
	var rec SubmitRecord
	c := cursor{b: payload}
	if !c.lit(`{"tenant":`) || !c.text(&rec.Tenant) || !c.optText(`,"name":`, &rec.Name) ||
		!c.optText(`,"parent":`, &rec.Parent) || !c.lit(`,"fingerprint":`) || !c.text(&rec.Fingerprint) ||
		!c.lit(`,"seq":`) {
		return SubmitRecord{}, false
	}
	seq, ok := c.number()
	if !ok {
		return SubmitRecord{}, false
	}
	var err error
	if rec.Seq, err = strconv.ParseUint(string(seq), 10, 64); err != nil ||
		!c.lit(`,"spec":`) || !c.spec(&rec.Spec) || !c.lit("}") || !c.end() {
		return SubmitRecord{}, false
	}
	return rec, true
}
