package controlplane

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"
)

// crashingWriter simulates a power cut mid-write: it acknowledges
// every byte handed to it but only the first limit bytes reach the
// platters. Replaying a recorded log through it at every limit yields
// the exact family of torn images a crashed daemon can leave behind.
type crashingWriter struct {
	limit int
	buf   []byte
}

func (w *crashingWriter) Write(p []byte) (int, error) {
	if room := w.limit - len(w.buf); room > 0 {
		if room > len(p) {
			room = len(p)
		}
		w.buf = append(w.buf, p[:room]...)
	}
	return len(p), nil // the kernel accepted the write; the disk did not
}

// crashImage produces the on-disk bytes after a crash at the given
// byte offset of the recorded log, generated through crashingWriter
// record by record — the same write pattern the store issues.
func crashImage(tb testing.TB, recs []WALRecord, offset int) []byte {
	tb.Helper()
	w := &crashingWriter{limit: offset}
	for _, r := range recs {
		if _, err := w.Write(appendWALRecord(nil, r)); err != nil {
			tb.Fatal(err)
		}
	}
	return w.buf
}

// stateDigest fingerprints the whole recoverable control state of a
// server: every snapshot (spec, fingerprint, seq, lineage) in global
// admission order, the admission counter, and the effective limits.
// Two servers with equal digests are bit-identical for every read path
// the daemon serves.
func stateDigest(tb testing.TB, srv *Server) string {
	tb.Helper()
	snaps, seq := srv.reg.Export()
	blob, err := json.Marshal(struct {
		Snapshots []SubmitRecord `json:"snapshots"`
		Seq       uint64         `json:"seq"`
		Limits    Limits         `json:"limits"`
	}{snaps, seq, srv.reg.Limits()})
	if err != nil {
		tb.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// crashSessionConfig is the server config under which the crash
// session is recorded AND under which every recovery attempt runs —
// replayed limits records land on top of the same baseline.
func crashSessionConfig() Config {
	return Config{Limits: Limits{MaxDeployments: 2}}
}

// crashStep is one request of the crash session: a submit, or a
// limits change when submit is nil.
type crashStep struct {
	tenant string
	submit *SubmitRequest
	limits *Limits
}

// crashAnswer is what the daemon told the client for one step.
type crashAnswer struct {
	sub    *SubmitResponse
	limits *Limits
	err    error
}

// crashScript is the crash session's script. It deliberately includes
// non-events that must leave no WAL residue: an idempotent resubmit
// (step 2) and a submit rejected by the per-tenant cap (step 3), plus a
// runtime limits change that lifts the cap mid-session. The other six
// steps each append one record.
func crashScript(t *testing.T) []crashStep {
	specA := testSpec(8, 5, 3, 1)
	sub := func(tenant, name, parent string, spec DeploymentSpec) crashStep {
		return crashStep{tenant: tenant, submit: &SubmitRequest{Name: name, Parent: parent, Spec: spec}}
	}
	return []crashStep{
		sub("acme", "field-a", "", specA),
		sub("acme", "field-b", "", testSpec(6, 4, 2, 2)),
		sub("acme", "field-a", "", specA),
		sub("acme", "field-c", "", testSpec(5, 3, 2, 3)),
		{tenant: "acme", limits: &Limits{MaxDeployments: 8}},
		sub("acme", "field-c", "", testSpec(5, 3, 2, 3)),
		sub("globex", "north", "", testSpec(7, 4, 1, 4)),
		// A child snapshot with lineage.
		sub("acme", "field-a-v2", mustFingerprint(t, specA), testSpec(9, 5, 3, 5)),
	}
}

// runCrashScript sends the script through cli and returns every answer.
func runCrashScript(cli *Client, script []crashStep) []crashAnswer {
	answers := make([]crashAnswer, len(script))
	for i, step := range script {
		a := &answers[i]
		if step.submit != nil {
			a.sub, a.err = cli.Submit(step.tenant, *step.submit)
			continue
		}
		var ctl *ControlResponse
		if ctl, a.err = cli.Control(step.tenant, ControlRequest{Op: ControlLimits, Limits: step.limits}); a.err == nil {
			a.limits = ctl.Limits
		}
	}
	return answers
}

// recordCrashSession drives the crash script through the wire against
// a store-backed daemon and returns the recorded WAL bytes.
func recordCrashSession(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	st, rec, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(crashSessionConfig())
	if _, err := srv.UseStore(st, rec); err != nil {
		t.Fatal(err)
	}
	for i, a := range runCrashScript(newClient(t, srv), crashScript(t)) {
		switch {
		case i == 3:
			if !isCode(a.err, CodeRejected) {
				t.Fatalf("over-cap submit: want %s, got %v", CodeRejected, a.err)
			}
		case a.err != nil:
			t.Fatalf("step %d: %v", i, a.err)
		case (i == 2) != (a.sub != nil && a.sub.Resubmitted):
			t.Fatalf("step %d: resubmitted %+v", i, a.sub)
		}
	}

	walBytes, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check: the never-crashed daemon's state equals a full replay
	// of its own log into a fresh server.
	recs, clean, torn := decodeWAL(walBytes)
	if torn != nil || clean != int64(len(walBytes)) {
		t.Fatalf("recorded log not clean: %v", torn)
	}
	fresh := NewServer(crashSessionConfig())
	if _, err := fresh.Restore(&Recovered{Records: recs}); err != nil {
		t.Fatal(err)
	}
	if got, want := stateDigest(t, fresh), stateDigest(t, srv); got != want {
		t.Fatalf("full replay diverges from the live daemon:\n got %s\nwant %s", got, want)
	}
	return walBytes
}

// TestCrashRecoveryEveryOffset is the fault-injection differential the
// issue demands: the recorded session's WAL is cut at EVERY byte
// offset; each torn image must recover — without panicking — to
// exactly the state of a daemon that durably executed the records
// whose bytes fully survive, with the damage reported as a typed torn
// tail whenever the cut is not a clean record boundary.
func TestCrashRecoveryEveryOffset(t *testing.T) {
	walBytes := recordCrashSession(t)
	recs, _, _ := decodeWAL(walBytes)
	if len(recs) < 5 {
		t.Fatalf("session recorded only %d WAL records", len(recs))
	}

	// digests[k] = state after durably executing the first k records.
	boundaries := map[int]int{0: 0}
	digests := make([]string, len(recs)+1)
	var prefix []byte
	for k := 0; k <= len(recs); k++ {
		srv := NewServer(crashSessionConfig())
		if _, err := srv.Restore(&Recovered{Records: recs[:k]}); err != nil {
			t.Fatalf("prefix %d: %v", k, err)
		}
		digests[k] = stateDigest(t, srv)
		if k < len(recs) {
			prefix = appendWALRecord(prefix, recs[k])
			boundaries[len(prefix)] = k + 1
		}
	}
	for k := 1; k <= len(recs); k++ {
		if digests[k] == digests[k-1] {
			t.Fatalf("record %d is a state no-op — the sweep would not detect losing it", k)
		}
	}

	for cut := 0; cut <= len(walBytes); cut++ {
		img := crashImage(t, recs, cut)
		got, clean, torn := decodeWAL(img)
		wantK, atBoundary := boundaries[cut]
		for off, k := range boundaries {
			if off <= cut && k > wantK {
				wantK = k
			}
		}
		if len(got) != wantK {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), wantK)
		}
		if atBoundary != (torn == nil) {
			t.Fatalf("cut %d: boundary=%v but torn=%v", cut, atBoundary, torn)
		}
		if torn != nil && (!errors.Is(torn, ErrTornTail) || torn.Offset != clean) {
			t.Fatalf("cut %d: malformed torn tail %+v (clean %d)", cut, torn, clean)
		}
		srv := NewServer(crashSessionConfig())
		if _, err := srv.Restore(&Recovered{Records: got, TornTail: torn}); err != nil {
			t.Fatalf("cut %d: recovery refused a valid clean prefix: %v", cut, err)
		}
		if d := stateDigest(t, srv); d != digests[wantK] {
			t.Fatalf("cut %d: recovered state diverges from the %d-record daemon", cut, wantK)
		}
	}
}

// TestCrashRecoveryFileBacked runs the sweep through the real store at
// sampled offsets — record boundaries, their neighbors, and a stride
// through payload bytes — asserting OpenStore truncates the torn tail
// off disk and the recovered daemon accepts new durable work whose log
// then reopens cleanly.
func TestCrashRecoveryFileBacked(t *testing.T) {
	walBytes := recordCrashSession(t)
	recs, _, _ := decodeWAL(walBytes)

	boundaries := map[int]int{0: 0}
	var prefix []byte
	for k, r := range recs {
		prefix = appendWALRecord(prefix, r)
		boundaries[len(prefix)] = k + 1
	}
	offsets := map[int]struct{}{}
	for off := range boundaries {
		for _, o := range []int{off - 1, off, off + 1} {
			if o >= 0 && o <= len(walBytes) {
				offsets[o] = struct{}{}
			}
		}
	}
	for off := 0; off <= len(walBytes); off += 97 { // stride through payloads
		offsets[off] = struct{}{}
	}

	for cut := range offsets {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(walPath(dir), crashImage(t, recs, cut), 0o644); err != nil {
				t.Fatal(err)
			}
			st, rec, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				t.Fatalf("OpenStore on torn image: %v", err)
			}
			wantK, atBoundary := boundaries[cut]
			for off, k := range boundaries {
				if off <= cut && k > wantK {
					wantK = k
				}
			}
			if len(rec.Records) != wantK || (atBoundary != (rec.TornTail == nil)) {
				t.Fatalf("recovered %d records (torn %v), want %d (boundary %v)",
					len(rec.Records), rec.TornTail, wantK, atBoundary)
			}
			srv := NewServer(crashSessionConfig())
			if _, err := srv.UseStore(st, rec); err != nil {
				t.Fatal(err)
			}
			// The torn tail is gone from disk: the file ends at the clean
			// prefix.
			if fi, err := os.Stat(walPath(dir)); err != nil || !boundaryAt(boundaries, fi.Size()) {
				t.Fatalf("post-open log size %d not a record boundary (%v)", fi.Size(), err)
			}
			// The recovered daemon keeps serving durably.
			cli := newClient(t, srv)
			if _, err := cli.Control("acme", ControlRequest{Op: ControlLimits,
				Limits: &Limits{MaxDeployments: 9}}); err != nil {
				t.Fatal(err)
			}
			if _, err := cli.Submit("initech", SubmitRequest{Name: "post-crash",
				Spec: testSpec(5, 3, 2, 77)}); err != nil {
				t.Fatal(err)
			}
			want := stateDigest(t, srv)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2, rec2, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			if rec2.TornTail != nil {
				t.Fatalf("log written after recovery reopened torn: %v", rec2.TornTail)
			}
			srv2 := NewServer(crashSessionConfig())
			if _, err := srv2.Restore(rec2); err != nil {
				t.Fatal(err)
			}
			if got := stateDigest(t, srv2); got != want {
				t.Fatalf("post-recovery appends not durable:\n got %s\nwant %s", got, want)
			}
		})
	}
}

func boundaryAt(boundaries map[int]int, size int64) bool {
	_, ok := boundaries[int(size)]
	return ok
}

// TestCrashRecoveryNeverAcksLostWrite closes the durability loop from
// the client's side: a submit the daemon acknowledged is never lost.
// The store is swapped for one whose log is torn immediately after the
// acknowledged record — recovery must still hold that snapshot.
func TestCrashRecoveryNeverAcksLostWrite(t *testing.T) {
	walBytes := recordCrashSession(t)
	recs, _, _ := decodeWAL(walBytes)
	// Every prefix of acknowledged records, torn one byte into the next
	// record's header, still recovers all acknowledged state.
	var prefix []byte
	for k, r := range recs {
		prefix = appendWALRecord(prefix, r)
		if k == len(recs)-1 {
			break
		}
		img := crashImage(t, recs, len(prefix)+1) // next record's first byte only
		got, _, torn := decodeWAL(img)
		if len(got) != k+1 || torn == nil {
			t.Fatalf("after record %d (+1 byte): recovered %d records, torn %v", k, len(got), torn)
		}
		srv := NewServer(crashSessionConfig())
		if _, err := srv.Restore(&Recovered{Records: got, TornTail: torn}); err != nil {
			t.Fatalf("after record %d: %v", k, err)
		}
		snaps, _ := srv.reg.Export()
		want := 0
		for i := 0; i <= k; i++ {
			if recs[i].Kind == RecordSubmit {
				want++
			}
		}
		if len(snaps) != want {
			t.Fatalf("after record %d: %d snapshots recovered, want %d", k, len(snaps), want)
		}
	}
}
