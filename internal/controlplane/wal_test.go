package controlplane

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// recordedSession is the canonical durable admission session the WAL
// harnesses share: three tenants' submits (including a child snapshot
// and two idempotency/rejection non-events that must leave no WAL
// residue) plus a limits change. Built purely from deterministic
// specs, so the encoded log is byte-stable across runs — it seeds
// FuzzWALReplay and drives the crash sweep.
type recordedEvent struct {
	// record is the WAL record the event durably appends.
	record WALRecord
	// submit is set for RecordSubmit events (replay verification).
	submit *SubmitRecord
}

// sessionSubmit normalizes and fingerprints a spec exactly as
// admission would and wraps it as the nth durable record.
func sessionSubmit(tb testing.TB, lsn uint64, tenant, name, parent string, spec DeploymentSpec) recordedEvent {
	tb.Helper()
	norm, err := Normalize(spec)
	if err != nil {
		tb.Fatalf("session spec: %v", err)
	}
	fp, err := Fingerprint(norm)
	if err != nil {
		tb.Fatal(err)
	}
	sub := SubmitRecord{Tenant: tenant, Name: name, Parent: parent, Fingerprint: fp, Seq: lsn, Spec: norm}
	payload, err := json.Marshal(&sub)
	if err != nil {
		tb.Fatal(err)
	}
	return recordedEvent{
		record: WALRecord{LSN: lsn, Kind: RecordSubmit, Payload: payload},
		submit: &sub,
	}
}

// recordedSessionEvents builds the session's durable records. Seq ==
// LSN here because every record before a submit is itself a submit
// except the final limits record.
func recordedSessionEvents(tb testing.TB) []recordedEvent {
	tb.Helper()
	a := sessionSubmit(tb, 1, "acme", "field-a", "", testSpec(8, 5, 3, 1))
	b := sessionSubmit(tb, 2, "acme", "field-b", "", testSpec(6, 4, 2, 2))
	c := sessionSubmit(tb, 3, "globex", "north", "", testSpec(7, 4, 1, 3))
	child := sessionSubmit(tb, 4, "acme", "field-a-v2", a.submit.Fingerprint, testSpec(9, 5, 3, 4))
	limits, err := json.Marshal(&LimitsRecord{Limits: Limits{
		MaxSensors: 5000, MaxTargets: DefaultMaxTargets, MaxDeployments: 12,
	}})
	if err != nil {
		tb.Fatal(err)
	}
	return []recordedEvent{
		a, b, c, child,
		{record: WALRecord{LSN: 5, Kind: RecordLimits, Payload: limits}},
	}
}

// sessionWAL encodes the recorded session as one log.
func sessionWAL(tb testing.TB) []byte {
	var buf []byte
	for _, ev := range recordedSessionEvents(tb) {
		buf = appendWALRecord(buf, ev.record)
	}
	return buf
}

func TestWALRecordRoundTrip(t *testing.T) {
	recs := []WALRecord{
		{LSN: 1, Kind: RecordSubmit, Payload: []byte(`{"tenant":"t"}`)},
		{LSN: 2, Kind: RecordLimits, Payload: []byte(`{"limits":{}}`)},
		{LSN: 9000, Kind: RecordSubmit, Payload: nil},
	}
	var buf []byte
	for _, r := range recs {
		buf = appendWALRecord(buf, r)
	}
	got, clean, torn := decodeWAL(buf)
	if torn != nil {
		t.Fatalf("clean log reported torn tail: %v", torn)
	}
	if clean != int64(len(buf)) {
		t.Fatalf("clean prefix %d, want %d", clean, len(buf))
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		if r.LSN != recs[i].LSN || r.Kind != recs[i].Kind || !bytes.Equal(r.Payload, recs[i].Payload) {
			t.Fatalf("record %d: got %+v, want %+v", i, r, recs[i])
		}
	}
}

// TestWALTornTailEveryOffset truncates the recorded session's log at
// every byte offset: the decoder must keep exactly the records whose
// bytes fully survive, report the damage as a typed torn tail (except
// at record boundaries, which are clean shutdown states), and never
// panic.
func TestWALTornTailEveryOffset(t *testing.T) {
	events := recordedSessionEvents(t)
	full := sessionWAL(t)

	// boundaries[k] is the byte offset just past record k.
	boundaries := map[int64]int{0: 0}
	var buf []byte
	for i, ev := range events {
		buf = appendWALRecord(buf, ev.record)
		boundaries[int64(len(buf))] = i + 1
	}

	for cut := 0; cut <= len(full); cut++ {
		recs, clean, torn := decodeWAL(full[:cut])
		wantRecs, atBoundary := 0, false
		for off, k := range boundaries {
			if off <= int64(cut) && k > wantRecs {
				wantRecs = k
			}
			if off == int64(cut) {
				atBoundary = true
			}
		}
		if len(recs) != wantRecs {
			t.Fatalf("cut %d: decoded %d records, want %d", cut, len(recs), wantRecs)
		}
		if atBoundary {
			if torn != nil {
				t.Fatalf("cut %d at record boundary: spurious torn tail %v", cut, torn)
			}
			if clean != int64(cut) {
				t.Fatalf("cut %d: clean prefix %d", cut, clean)
			}
		} else {
			if torn == nil {
				t.Fatalf("cut %d mid-record: no torn tail reported", cut)
			}
			if !errors.Is(torn, ErrTornTail) {
				t.Fatalf("cut %d: torn tail not typed: %v", cut, torn)
			}
			if torn.Offset != clean || clean >= int64(cut) {
				t.Fatalf("cut %d: torn offset %d, clean %d", cut, torn.Offset, clean)
			}
		}
	}
}

// TestWALDecodeRejectsCorruption flips structural fields of a valid
// record and wants each damage class surfaced as a typed torn tail
// ending the clean prefix.
func TestWALDecodeRejectsCorruption(t *testing.T) {
	base := appendWALRecord(nil, WALRecord{LSN: 1, Kind: RecordSubmit, Payload: []byte(`{"tenant":"t"}`)})
	corrupt := func(name string, mutate func(b []byte)) {
		b := append([]byte(nil), base...)
		mutate(b)
		recs, _, torn := decodeWAL(b)
		if len(recs) != 0 || torn == nil {
			t.Errorf("%s: corruption accepted (%d records, torn %v)", name, len(recs), torn)
		}
	}
	corrupt("bad version", func(b []byte) { b[0] = WALVersion1 + 1 })
	corrupt("zero kind", func(b []byte) { b[1] = 0 })
	corrupt("unknown kind", func(b []byte) { b[1] = byte(maxRecordKind) + 1 })
	corrupt("payload bit flip", func(b []byte) { b[len(b)-1] ^= 0x40 })
	corrupt("crc flip", func(b []byte) { b[15] ^= 0x01 })
	corrupt("lsn flip", func(b []byte) { b[13] ^= 0x02 }) // CRC covers the LSN too

	// Oversize declared length dies before allocation.
	huge := append([]byte(nil), base...)
	huge[2], huge[3], huge[4], huge[5] = 0xff, 0xff, 0xff, 0xff
	if recs, _, torn := decodeWAL(huge); len(recs) != 0 || torn == nil {
		t.Fatalf("oversize length accepted (%d records)", len(recs))
	}

	// Non-monotonic LSN ends the clean prefix at the offending record.
	var log []byte
	log = appendWALRecord(log, WALRecord{LSN: 5, Kind: RecordLimits, Payload: []byte(`{"limits":{}}`)})
	mark := len(log)
	log = appendWALRecord(log, WALRecord{LSN: 5, Kind: RecordLimits, Payload: []byte(`{"limits":{}}`)})
	recs, clean, torn := decodeWAL(log)
	if len(recs) != 1 || clean != int64(mark) || torn == nil {
		t.Fatalf("repeated LSN: %d records, clean %d, torn %v", len(recs), clean, torn)
	}
	// A zero LSN is invalid even as the first record.
	zero := appendWALRecord(nil, WALRecord{LSN: 0, Kind: RecordLimits, Payload: []byte(`{"limits":{}}`)})
	if recs, _, torn := decodeWAL(zero); len(recs) != 0 || torn == nil {
		t.Fatalf("zero LSN accepted (%d records)", len(recs))
	}
}

// TestStoreAppendRecoverCycle drives the store through its whole life:
// open empty, append the session, reopen (records recovered), compact
// through WriteCheckpoint as earlier builds did (log truncated), append
// past the checkpoint, reopen (checkpoint + tail records).
func TestStoreAppendRecoverCycle(t *testing.T) {
	dir := t.TempDir()
	events := recordedSessionEvents(t)

	st, rec, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint != nil || len(rec.Records) != 0 || rec.TornTail != nil {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	for _, ev := range events {
		var aerr error
		if ev.submit != nil {
			aerr = st.AppendSubmit(*ev.submit)
		} else {
			var lim LimitsRecord
			if err := json.Unmarshal(ev.record.Payload, &lim); err != nil {
				t.Fatal(err)
			}
			aerr = st.AppendLimits(lim.Limits)
		}
		if aerr != nil {
			t.Fatalf("append: %v", aerr)
		}
	}
	if st.LSN() != uint64(len(events)) {
		t.Fatalf("LSN %d after %d appends", st.LSN(), len(events))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}

	// Reopen: everything is in the log, nothing in a checkpoint.
	st, rec, err = OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint != nil || len(rec.Records) != len(events) || rec.TornTail != nil {
		t.Fatalf("reopen recovered %d records (checkpoint %v, torn %v)",
			len(rec.Records), rec.Checkpoint, rec.TornTail)
	}
	onDisk := sessionWAL(t)
	got, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, onDisk) {
		t.Fatalf("on-disk log differs from the deterministic session encoding\n got %d bytes\nwant %d bytes",
			len(got), len(onDisk))
	}

	// Compact a restored server's state: the log truncates away.
	srv := NewServer(Config{})
	if _, err := srv.UseStore(st, rec); err != nil {
		t.Fatal(err)
	}
	compactLegacy(t, srv, st)
	if fi, err := os.Stat(walPath(dir)); err != nil || fi.Size() != 0 {
		t.Fatalf("log not truncated after checkpoint: %v, %v", fi, err)
	}
	extra := sessionSubmit(t, 5, "initech", "south", "", testSpec(5, 3, 2, 9))
	extra.submit.Seq = 5 // registry counter after 4 submits + limits LSN ordering
	if err := st.AppendSubmit(*extra.submit); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the checkpoint carries the compacted state, the log the
	// tail record, and their LSNs do not overlap.
	st, rec, err = OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if rec.Checkpoint == nil || rec.Checkpoint.LSN != uint64(len(events)) {
		t.Fatalf("reopen after checkpoint: %+v", rec.Checkpoint)
	}
	if len(rec.Checkpoint.Snapshots) != 4 {
		t.Fatalf("checkpoint carries %d snapshots, want 4", len(rec.Checkpoint.Snapshots))
	}
	if len(rec.Records) != 1 || rec.Records[0].LSN != uint64(len(events))+1 {
		t.Fatalf("reopen tail: %+v", rec.Records)
	}
	if st.LSN() != uint64(len(events))+1 {
		t.Fatalf("reopened LSN %d", st.LSN())
	}
}

// TestStoreTornTailTruncatedOnOpen writes a log ending mid-record and
// wants OpenStore to report the typed tail, truncate it off disk, and
// leave the file appendable from the clean prefix.
func TestStoreTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	full := sessionWAL(t)
	cut := len(full) - 7 // mid-record
	if err := os.WriteFile(walPath(dir), full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	st, rec, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornTail == nil || !errors.Is(rec.TornTail, ErrTornTail) {
		t.Fatalf("torn log opened without typed report: %+v", rec.TornTail)
	}
	if len(rec.Records) != len(recordedSessionEvents(t))-1 {
		t.Fatalf("recovered %d records", len(rec.Records))
	}
	fi, err := os.Stat(walPath(dir))
	if err != nil || fi.Size() != rec.TornTail.Offset {
		t.Fatalf("tail not truncated: size %d, clean %d", fi.Size(), rec.TornTail.Offset)
	}
	// Appends continue the clean prefix with the next LSN.
	extra := sessionSubmit(t, st.LSN()+1, "initech", "west", "", testSpec(5, 3, 2, 10))
	if err := st.AppendSubmit(*extra.submit); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.TornTail != nil || len(rec2.Records) != len(recordedSessionEvents(t)) {
		t.Fatalf("post-repair reopen: %d records, torn %v", len(rec2.Records), rec2.TornTail)
	}
}

// TestStoreCheckpointCrashIdempotent simulates a crash between the
// checkpoint rename and the log truncation: the log still holds
// records the checkpoint already compacted, and recovery must skip
// them by LSN instead of double-applying.
func TestStoreCheckpointCrashIdempotent(t *testing.T) {
	dir := t.TempDir()
	events := recordedSessionEvents(t)
	full := sessionWAL(t)

	// Build the checkpoint a server would have written after the whole
	// session, but leave the full log in place (the "crash").
	srv := NewServer(Config{})
	recs, _, torn := decodeWAL(full)
	if torn != nil {
		t.Fatal(torn)
	}
	if _, err := srv.Restore(&Recovered{Records: recs}); err != nil {
		t.Fatal(err)
	}
	snaps, seq := srv.reg.Export()
	cp := &Checkpoint{FormatVersion: checkpointFormatVersion, LSN: uint64(len(events)),
		Seq: seq, Limits: srv.reg.Limits(), Snapshots: snaps}
	data, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(checkpointPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath(dir), full, 0o644); err != nil {
		t.Fatal(err)
	}
	// A leftover checkpoint temp file from the same crash must be swept.
	if err := os.WriteFile(checkpointPath(dir)+".tmp", []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}

	st, rec, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(rec.Records) != 0 {
		t.Fatalf("compacted records replayed again: %d", len(rec.Records))
	}
	if _, err := os.Stat(checkpointPath(dir) + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("crash temp file survived open: %v", err)
	}
	srv2 := NewServer(Config{})
	if _, err := srv2.Restore(rec); err != nil {
		t.Fatal(err)
	}
	mustEqualServerState(t, "checkpoint-crash recovery", srv2, srv)
}

// compactLegacy compacts the server's full state into the store's
// checkpoint through Store.WriteCheckpoint, as earlier builds did on
// their compaction cadence and at shutdown.
func compactLegacy(t *testing.T, srv *Server, st *Store) {
	t.Helper()
	snaps, seq := srv.reg.Export()
	if err := st.WriteCheckpoint(&Checkpoint{Seq: seq, Limits: srv.reg.Limits(), Snapshots: snaps}); err != nil {
		t.Fatal(err)
	}
}

// The legacy data-dir fixture: the checkpoint.json and wal.log a
// store-backed server left when builds compacted every few events (here
// every 3), recorded through the wire client from crashSessionConfig —
// two tenants, a child snapshot, an idempotent resubmit, a rejected
// submit and two limits changes. The session's fourth event wrote the
// checkpoint; the log holds the three records after it. The expected
// digest and per-tenant List answers are the recording server's.
const (
	legacyDataDir       = "testdata/legacy_datadir"
	legacyWantPath      = "testdata/legacy_datadir.json"
	legacyCheckpointLSN = 4
	legacyTail          = 3
)

type legacyWant struct {
	Digest string                   `json:"digest"`
	Lists  map[string]*ListResponse `json:"lists"`
}

// TestStoreLegacyDataDir recovers a copy of the frozen fixture to the
// recording server's state, appends one admission after its tail, and
// reopens to the checkpoint, the old tail and the new record — the
// checkpoint file itself untouched.
func TestStoreLegacyDataDir(t *testing.T) {
	blob, err := os.ReadFile(legacyWantPath)
	if err != nil {
		t.Fatal(err)
	}
	var want legacyWant
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"checkpoint.json", "wal.log"} {
		data, err := os.ReadFile(filepath.Join(legacyDataDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint, err := os.ReadFile(checkpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}

	st, rec, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint == nil || rec.Checkpoint.LSN != legacyCheckpointLSN ||
		len(rec.Records) != legacyTail || rec.TornTail != nil {
		t.Fatalf("legacy dir opened as checkpoint %+v, %d tail records, torn %v",
			rec.Checkpoint, len(rec.Records), rec.TornTail)
	}
	srv := NewServer(crashSessionConfig())
	stats, err := srv.UseStore(st, rec)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Checkpointed != 3 || stats.Records != legacyTail {
		t.Fatalf("recovered %d checkpointed snapshots and %d records", stats.Checkpointed, stats.Records)
	}
	if got := stateDigest(t, srv); got != want.Digest {
		t.Fatalf("legacy recovery diverges from the recording server:\n got %s\nwant %s", got, want.Digest)
	}
	cli := newClient(t, srv)
	for tenant, wl := range want.Lists {
		gl, err := cli.List(tenant)
		if err != nil {
			t.Fatal(err)
		}
		gb, _ := json.Marshal(gl)
		wb, _ := json.Marshal(wl)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("tenant %s list differs\n got %s\nwant %s", tenant, gb, wb)
		}
	}

	// One admission appends after the legacy tail.
	sub, err := cli.Submit("initech", SubmitRequest{Name: "after-upgrade", Spec: testSpec(5, 3, 2, 88)})
	if err != nil {
		t.Fatal(err)
	}
	after := stateDigest(t, srv)
	// Abandon the server; the appended record is already synced.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec2.Checkpoint == nil || rec2.Checkpoint.LSN != legacyCheckpointLSN ||
		len(rec2.Records) != legacyTail+1 || rec2.TornTail != nil {
		t.Fatalf("reopen: checkpoint %+v, %d tail records, torn %v",
			rec2.Checkpoint, len(rec2.Records), rec2.TornTail)
	}
	for i, r := range rec2.Records {
		if r.LSN != legacyCheckpointLSN+uint64(i)+1 {
			t.Fatalf("tail record %d has LSN %d", i, r.LSN)
		}
	}
	srv2 := NewServer(crashSessionConfig())
	if _, err := srv2.UseStore(st2, rec2); err != nil {
		t.Fatal(err)
	}
	if got := stateDigest(t, srv2); got != after {
		t.Fatalf("reopened state diverges after the appended admission:\n got %s\nwant %s", got, after)
	}
	if _, ok := srv2.reg.get("initech", sub.Fingerprint); !ok {
		t.Fatal("appended admission lost on reopen")
	}
	if got, err := os.ReadFile(checkpointPath(dir)); err != nil || !bytes.Equal(got, checkpoint) {
		t.Fatalf("legacy checkpoint rewritten (%v)", err)
	}
}

// mustEqualServerState asserts two servers hold bit-identical control
// state: same snapshots (fingerprint, seq, lineage, spec) in the same
// global order, same admission counter, same effective limits, and the
// same per-tenant List output.
func mustEqualServerState(t *testing.T, label string, got, want *Server) {
	t.Helper()
	gs, gseq := got.reg.Export()
	ws, wseq := want.reg.Export()
	gb, err := json.Marshal(gs)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(ws)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%s: exported state differs\n got %s\nwant %s", label, gb, wb)
	}
	if gseq != wseq {
		t.Fatalf("%s: admission counter %d, want %d", label, gseq, wseq)
	}
	if gl, wl := got.reg.Limits(), want.reg.Limits(); gl != wl {
		t.Fatalf("%s: limits %+v, want %+v", label, gl, wl)
	}
	tenants := make(map[string]struct{})
	for i := range ws {
		tenants[ws[i].Tenant] = struct{}{}
	}
	for tenant := range tenants {
		gl, wl := got.reg.List(tenant), want.reg.List(tenant)
		glb, _ := json.Marshal(gl)
		wlb, _ := json.Marshal(wl)
		if !bytes.Equal(glb, wlb) {
			t.Fatalf("%s: tenant %s list differs\n got %s\nwant %s", label, tenant, glb, wlb)
		}
	}
}

// TestRestoreRejectsTamperedRecord frames lying payloads with a valid
// CRC, so the framing is clean but the content is not what the daemon
// wrote: a payload byte flipped (the spec no longer hashes to its
// recorded identity), and a submit and a limits record followed by
// stray closing brackets. Replay must fail stop rather than install
// any of them. A limits record followed only by whitespace still
// replays.
func TestRestoreRejectsTamperedRecord(t *testing.T) {
	ev := sessionSubmit(t, 1, "acme", "field-a", "", testSpec(8, 5, 3, 1))
	tampered := *ev.submit
	tampered.Spec.Sensors = append([]SensorSpec(nil), tampered.Spec.Sensors...)
	tampered.Spec.Sensors[0].X += 1 // content no longer matches the fingerprint
	payload, err := json.Marshal(&tampered)
	if err != nil {
		t.Fatal(err)
	}
	limits, err := json.Marshal(&LimitsRecord{Limits: Limits{MaxSensors: 9, MaxTargets: 9, MaxDeployments: 9}})
	if err != nil {
		t.Fatal(err)
	}
	withTail := func(payload []byte, tail string) []byte {
		return append(append([]byte(nil), payload...), tail...)
	}
	defaults := NewServer(Config{}).reg.Limits()
	for _, c := range []struct {
		name    string
		kind    RecordKind
		payload []byte
	}{
		{"tampered spec", RecordSubmit, payload},
		{"submit record then }", RecordSubmit, withTail(ev.record.Payload, "}")},
		{"limits record then }]", RecordLimits, withTail(limits, "}]")},
	} {
		log := appendWALRecord(nil, WALRecord{LSN: 1, Kind: c.kind, Payload: c.payload})
		recs, _, torn := decodeWAL(log)
		if torn != nil || len(recs) != 1 {
			t.Fatalf("%s: framing should be clean: %v", c.name, torn)
		}
		srv := NewServer(Config{})
		if _, err := srv.Restore(&Recovered{Records: recs}); err == nil {
			t.Fatalf("%s: replayed without error", c.name)
		}
		if snaps, _ := srv.reg.Export(); len(snaps) != 0 {
			t.Fatalf("%s: left residue: %d snapshots", c.name, len(snaps))
		}
		if got := srv.reg.Limits(); got != defaults {
			t.Fatalf("%s: limits changed to %+v", c.name, got)
		}
	}
	srv := NewServer(Config{})
	recs := []WALRecord{{LSN: 1, Kind: RecordLimits, Payload: withTail(limits, "\n \t")}}
	if _, err := srv.Restore(&Recovered{Records: recs}); err != nil {
		t.Fatalf("limits record then whitespace: %v", err)
	}
	if got := srv.reg.Limits(); got.MaxDeployments != 9 {
		t.Fatalf("limits record then whitespace: limits %+v", got)
	}
}

// TestRestoreRejectsUnnormalizedRecord builds records whose fingerprint
// is the SHA-256 of their own spec bytes, so a replay that trusted the
// logged bytes would install them: a spec Normalize would change (a
// target without its default weight), and spec bytes that decode to a
// normalized spec but are not the ones admission writes ("rho":3.0).
// Replay re-derives the fingerprint from the normalized spec and must
// reject both.
func TestRestoreRejectsUnnormalizedRecord(t *testing.T) {
	norm, err := Normalize(testSpec(8, 5, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	unweighted := norm
	unweighted.Targets = append([]TargetSpec(nil), norm.Targets...)
	unweighted.Targets[0].Weight = 0
	raw, err := json.Marshal(&unweighted)
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := json.Marshal(&norm)
	if err != nil {
		t.Fatal(err)
	}
	longhand := bytes.Replace(canonical, []byte(`"rho":3,`), []byte(`"rho":3.0,`), 1)
	for name, spec := range map[string][]byte{"unweighted target": raw, "longhand number": longhand} {
		if bytes.Equal(spec, canonical) {
			t.Fatalf("%s: spec bytes unchanged", name)
		}
		rec := SubmitRecord{Tenant: "acme", Name: "field-a", Fingerprint: fingerprintOf(spec), Seq: 1}
		payload := appendSubmitRecord(nil, &rec, spec)
		var probe SubmitRecord
		if err := decodeStrictJSON(payload, &probe); err != nil {
			t.Fatalf("%s: record does not decode: %v", name, err)
		}
		srv := NewServer(Config{})
		if _, err := srv.Restore(&Recovered{Records: []WALRecord{{LSN: 1, Kind: RecordSubmit, Payload: payload}}}); err == nil {
			t.Fatalf("%s: replayed without error", name)
		}
		if snaps, _ := srv.reg.Export(); len(snaps) != 0 {
			t.Fatalf("%s: left residue: %d snapshots", name, len(snaps))
		}
	}
}

// faultyFile is a wal.log whose first Sync fails, or whose first Write
// persists half its bytes and fails (a short write, as on a full
// disk). Every later call goes through, so a store that kept appending
// after the fault would succeed.
type faultyFile struct {
	walFile
	failSync, shortWrite bool
}

var errInjected = errors.New("injected storage fault")

func (f *faultyFile) Write(p []byte) (int, error) {
	if f.shortWrite {
		f.shortWrite = false
		n, _ := f.walFile.Write(p[:len(p)/2])
		return n, errInjected
	}
	return f.walFile.Write(p)
}

func (f *faultyFile) Sync() error {
	if f.failSync {
		f.failSync = false
		return errInjected
	}
	return f.walFile.Sync()
}

// TestStoreFailedSyncPoisons injects one storage fault into the first
// admission's append and wants the store stopped: that admission, an
// identical retry and a limits change all get storage, and nothing
// reaches the log after the damaged record. A restart then decides
// that record's fate exactly once: after a failed sync its bytes are in
// the log and the retry is an idempotent resubmit at Seq 1; after a
// short write the torn tail is truncated and the retry is admitted
// afresh at Seq 1.
func TestStoreFailedSyncPoisons(t *testing.T) {
	spec := testSpec(8, 5, 3, 1)
	for _, c := range []struct {
		name  string
		fault faultyFile
		torn  bool
	}{
		{"failed sync", faultyFile{failSync: true}, false},
		{"short write", faultyFile{shortWrite: true}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			st, rec, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			fault := c.fault
			fault.walFile = st.f
			st.f = &fault
			srv := NewServer(Config{})
			if _, err := srv.UseStore(st, rec); err != nil {
				t.Fatal(err)
			}
			cli := newClient(t, srv)
			for _, attempt := range []string{"first submit", "identical retry"} {
				if resp, err := cli.Submit("acme", SubmitRequest{Name: "field-a", Spec: spec}); !isCode(err, CodeStorage) {
					t.Errorf("%s: want %s, got %+v, %v", attempt, CodeStorage, resp, err)
				}
			}
			if _, err := cli.Control("acme", ControlRequest{Op: ControlLimits,
				Limits: &Limits{MaxDeployments: 9}}); !isCode(err, CodeStorage) {
				t.Errorf("limits change: want %s, got %v", CodeStorage, err)
			}
			cli.Close()
			srv.Close()

			st2, rec2, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			srv2 := NewServer(Config{})
			if _, err := srv2.UseStore(st2, rec2); err != nil {
				t.Fatalf("restart: %v", err)
			}
			defer srv2.Close()
			if (rec2.TornTail != nil) != c.torn {
				t.Fatalf("restart: torn tail %v, want torn %v", rec2.TornTail, c.torn)
			}
			fi, err := os.Stat(walPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			if c.torn && fi.Size() != 0 {
				t.Fatalf("restart left %d bytes of a torn log", fi.Size())
			}
			if got := srv2.reg.Limits(); got.MaxDeployments != DefaultMaxDeployments {
				t.Fatalf("restart recovered limits %+v from a failed append", got)
			}
			resp, err := newClient(t, srv2).Submit("acme", SubmitRequest{Name: "field-a", Spec: spec})
			if err != nil || resp.Seq != 1 || resp.Resubmitted == c.torn {
				t.Fatalf("resubmit after restart: %+v, %v; want seq 1, resubmitted %v", resp, err, !c.torn)
			}
		})
	}

	// The stop covers every writer, the legacy checkpoint included.
	st, _, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.f = &faultyFile{walFile: st.f, failSync: true}
	ev := sessionSubmit(t, 1, "acme", "field-a", "", spec)
	for name, err := range map[string]error{
		"failing limits": st.AppendLimits(Limits{MaxSensors: 5}),
		"submit":         st.AppendSubmit(*ev.submit),
		"limits":         st.AppendLimits(Limits{MaxSensors: 6}),
		"checkpoint":     st.WriteCheckpoint(&Checkpoint{}),
	} {
		if !errors.Is(err, errInjected) {
			t.Errorf("%s after a failed sync: want the injected fault, got %v", name, err)
		}
	}
}

const goldenWALPath = "testdata/golden_wal.json"

// TestGoldenWAL pins the WAL record encodings byte-for-byte: the
// recorded session's log plus each record kind individually. The
// corpus regenerates with the same -update flag as the wire corpus,
// which also rewrites the FuzzWALReplay seed corpus.
func TestGoldenWAL(t *testing.T) {
	entries := []goldenEntry{{Name: "session", FrameHex: hex.EncodeToString(sessionWAL(t))}}
	for i, ev := range recordedSessionEvents(t) {
		kind := "submit"
		if ev.record.Kind == RecordLimits {
			kind = "limits"
		}
		entries = append(entries, goldenEntry{
			Name:     fmt.Sprintf("record-%02d-%s", i, kind),
			FrameHex: hex.EncodeToString(appendWALRecord(nil, ev.record)),
		})
	}

	if *updateGolden {
		data, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenWALPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		writeSeedCorpus(t, "FuzzWALReplay", walFuzzSeeds(t))
		t.Logf("rewrote %s (%d entries) and the FuzzWALReplay seed corpus", goldenWALPath, len(entries))
	}

	data, err := os.ReadFile(goldenWALPath)
	if err != nil {
		t.Fatalf("reading golden WAL corpus (run with -update to create): %v", err)
	}
	var pinned []goldenEntry
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatal(err)
	}
	if len(pinned) != len(entries) {
		t.Fatalf("corpus has %d entries, test builds %d — regenerate with -update", len(pinned), len(entries))
	}
	for i, e := range entries {
		if pinned[i].Name != e.Name {
			t.Fatalf("corpus entry %d is %q, test builds %q", i, pinned[i].Name, e.Name)
		}
		if pinned[i].FrameHex != e.FrameHex {
			t.Errorf("%s: encoding drifted from golden corpus", e.Name)
			continue
		}
		// Round trip: pinned bytes decode and re-encode to themselves.
		raw, err := hex.DecodeString(pinned[i].FrameHex)
		if err != nil {
			t.Fatal(err)
		}
		recs, clean, torn := decodeWAL(raw)
		if torn != nil || clean != int64(len(raw)) {
			t.Errorf("%s: pinned bytes do not decode cleanly: %v", e.Name, torn)
			continue
		}
		var re []byte
		for _, r := range recs {
			re = appendWALRecord(re, r)
		}
		if !bytes.Equal(re, raw) {
			t.Errorf("%s: decode/re-encode not identity", e.Name)
		}
	}
}

// walFuzzSeeds is the committed FuzzWALReplay seed corpus: the
// recorded session, every single-record encoding, clean boundaries,
// torn tails, and corruption shapes — shared between f.Add and the
// -update regeneration so the on-disk corpus cannot drift.
func walFuzzSeeds(tb testing.TB) [][]byte {
	full := sessionWAL(tb)
	events := recordedSessionEvents(tb)
	firstLen := len(appendWALRecord(nil, events[0].record))
	crcFlip := append([]byte(nil), full...)
	crcFlip[15] ^= 0x01
	badKind := append([]byte(nil), full...)
	badKind[1] = 0x7f
	seeds := [][]byte{
		full,
		full[:firstLen],              // clean single-record boundary
		full[:firstLen+walHeaderLen], // torn: header of record 2, no payload
		full[:len(full)-3],           // torn tail
		crcFlip,
		badKind,
		{},
		[]byte("not a log at all"),
		appendWALRecord(nil, WALRecord{LSN: 1, Kind: RecordLimits, Payload: []byte(`{"limits":{"max_sensors":5}}`)}),
		appendWALRecord(nil, WALRecord{LSN: 1, Kind: RecordSubmit, Payload: []byte(`{"tenant":"t","fingerprint":"lies","seq":1,"spec":{"rho":1}}`)}),
	}
	for _, ev := range events {
		seeds = append(seeds, appendWALRecord(nil, ev.record))
	}
	return seeds
}

// FuzzWALReplay hammers the recovery path with mutated logs. The
// contract: decoding never panics, the accepted clean prefix
// re-encodes byte-identically, and any log that replays successfully
// yields a state that re-serializes byte-identically when exported and
// restored again (replay is a fixed point — no lossy acceptance).
func FuzzWALReplay(f *testing.F) {
	for _, seed := range walFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, clean, torn := decodeWAL(data)
		if clean > int64(len(data)) {
			t.Fatalf("clean prefix %d beyond input %d", clean, len(data))
		}
		if (torn != nil) != (clean < int64(len(data))) {
			t.Fatalf("torn report %v inconsistent with clean %d of %d", torn, clean, len(data))
		}
		var re []byte
		for _, r := range recs {
			re = appendWALRecord(re, r)
		}
		if !bytes.Equal(re, data[:clean]) {
			t.Fatalf("accepted prefix does not re-encode identically")
		}

		srv := NewServer(Config{})
		if _, err := srv.Restore(&Recovered{Records: recs, TornTail: torn}); err != nil {
			return // typed rejection of a semantically bad log
		}
		snaps, seq := srv.reg.Export()
		first, err := json.Marshal(snaps)
		if err != nil {
			t.Fatal(err)
		}
		// Fixed point: exporting the accepted state and restoring it as a
		// checkpoint must reproduce the identical serialization.
		srv2 := NewServer(Config{})
		if _, err := srv2.Restore(&Recovered{Checkpoint: &Checkpoint{
			FormatVersion: checkpointFormatVersion, LSN: seq, Seq: seq,
			Limits: srv.reg.Limits(), Snapshots: snaps,
		}}); err != nil {
			t.Fatalf("accepted state does not restore from its own export: %v", err)
		}
		snaps2, seq2 := srv2.reg.Export()
		second, err := json.Marshal(snaps2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) || seq != seq2 {
			t.Fatalf("replayed state is not a serialization fixed point\n first %s\nsecond %s", first, second)
		}
		if srv.reg.Limits() != srv2.reg.Limits() {
			t.Fatalf("limits not a fixed point: %+v vs %+v", srv.reg.Limits(), srv2.reg.Limits())
		}
	})
}
