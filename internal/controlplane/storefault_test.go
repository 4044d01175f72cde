package controlplane

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// heldFile is a wal.log whose first Sync waits until the test releases
// it with that sync's result; held closes when that Sync is reached.
// The store calls Sync under its own lock, so no further guard is
// needed.
type heldFile struct {
	walFile
	held    chan struct{}
	release chan error
	reached bool
}

// holdNextSync swaps the store's wal.log for a heldFile, which holds
// the next sync. A test that stops before settling it fails it.
func holdNextSync(t *testing.T, st *Store) *heldFile {
	f := &heldFile{held: make(chan struct{}), release: make(chan error, 1)}
	st.mu.Lock()
	f.walFile, st.f = st.f, f
	st.mu.Unlock()
	t.Cleanup(func() { f.settle(errInjected) })
	return f
}

// settle releases the held sync with err, unless it was released.
func (f *heldFile) settle(err error) {
	select {
	case f.release <- err:
	default:
	}
}

func (f *heldFile) Sync() error {
	if !f.reached {
		f.reached = true
		close(f.held)
		if err := <-f.release; err != nil {
			return err
		}
	}
	return f.walFile.Sync()
}

// storeServer serves a fresh data dir.
func storeServer(t *testing.T) (*Server, *Store) {
	t.Helper()
	st, rec, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{})
	if _, err := srv.UseStore(st, rec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, st
}

// answer is one asynchronous request's outcome.
type answer[T any] struct {
	resp *T
	err  error
}

// async runs one request on its own goroutine.
func async[T any](req func() (*T, error)) <-chan answer[T] {
	ch := make(chan answer[T], 1)
	go func() {
		resp, err := req()
		ch <- answer[T]{resp, err}
	}()
	return ch
}

// staysUnanswered fails the test if the request is answered within a
// short wait, while a sync it must wait for is held.
func staysUnanswered[T any](t *testing.T, what string, ch <-chan answer[T]) {
	t.Helper()
	select {
	case a := <-ch:
		t.Fatalf("%s answered while the sync is held: %+v, %v", what, a.resp, a.err)
	case <-time.After(100 * time.Millisecond):
	}
}

// unpublished checks that no read names the tenant's snapshot fp:
// plan, status and watch answer not-found and list omits it.
func unpublished(t *testing.T, cli *Client, tenant, fp string) {
	t.Helper()
	if resp, err := cli.Plan(tenant, PlanRequest{Fingerprint: fp}); !isCode(err, CodeNotFound) {
		t.Errorf("plan: want %s, got %+v, %v", CodeNotFound, resp, err)
	}
	if resp, err := cli.Query(tenant, QueryRequest{Fingerprint: fp, What: QueryStatus}); !isCode(err, CodeNotFound) {
		t.Errorf("status: want %s, got %+v, %v", CodeNotFound, resp, err)
	}
	if w, err := cli.Watch(tenant, fp); !isCode(err, CodeNotFound) {
		t.Errorf("watch: want %s, got %+v, %v", CodeNotFound, w, err)
	}
	list, err := cli.List(tenant)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range list.Snapshots {
		if s.Fingerprint == fp {
			t.Errorf("list names the snapshot: %+v", s)
		}
	}
}

// TestStoreHeldSyncHidesAdmission holds the sync of an admission's WAL
// record. Meanwhile a second connection's identical submit is not
// answered, and plan, status, watch and list on a third see no
// snapshot, while a resubmit of an already published spec is answered
// at once. When the sync fails, both submits get storage and the
// snapshot stays unpublished; when it succeeds, the waiting submit is
// resubmitted at the first one's Seq.
func TestStoreHeldSyncHidesAdmission(t *testing.T) {
	spec, published := testSpec(8, 5, 3, 1), testSpec(6, 4, 2, 2)
	fp := mustFingerprint(t, spec)
	for _, fail := range []bool{true, false} {
		t.Run(fmt.Sprintf("sync-fails=%v", fail), func(t *testing.T) {
			srv, st := storeServer(t)
			first, second, reader := newClient(t, srv), newClient(t, srv), newClient(t, srv)
			pub, err := reader.Submit("acme", SubmitRequest{Name: "field-b", Spec: published})
			if err != nil {
				t.Fatal(err)
			}
			hold := holdNextSync(t, st)
			submit := func(cli *Client) <-chan answer[SubmitResponse] {
				return async(func() (*SubmitResponse, error) {
					return cli.Submit("acme", SubmitRequest{Name: "field-a", Spec: spec})
				})
			}
			firstCh := submit(first)
			<-hold.held
			if re, err := reader.Submit("acme", SubmitRequest{Name: "field-b", Spec: published}); err != nil || !re.Resubmitted || re.Seq != pub.Seq {
				t.Fatalf("resubmit of a published spec during the hold: %+v, %v", re, err)
			}
			secondCh := submit(second)
			unpublished(t, reader, "acme", fp)
			staysUnanswered(t, "identical submit", secondCh)

			if fail {
				hold.settle(errInjected)
			} else {
				hold.settle(nil)
			}
			a, b := <-firstCh, <-secondCh
			if fail {
				for name, got := range map[string]answer[SubmitResponse]{"first": a, "second": b} {
					if !isCode(got.err, CodeStorage) {
						t.Errorf("%s submit after the failed sync: want %s, got %+v, %v", name, CodeStorage, got.resp, got.err)
					}
				}
				unpublished(t, reader, "acme", fp)
				return
			}
			seq := pub.Seq + 1
			if a.err != nil || a.resp.Seq != seq || a.resp.Resubmitted {
				t.Fatalf("first submit: %+v, %v; want seq %d, fresh", a.resp, a.err, seq)
			}
			if b.err != nil || b.resp.Seq != seq || !b.resp.Resubmitted {
				t.Fatalf("waiting submit: %+v, %v; want seq %d, resubmitted", b.resp, b.err, seq)
			}
			if _, err := reader.Plan("acme", PlanRequest{Fingerprint: fp}); err != nil {
				t.Fatalf("plan after the sync: %v", err)
			}
		})
	}
}

// TestStoreHeldSyncHidesLimits holds the sync of a limits change to
// MaxSensors 4 while an 8-sensor submit arrives: the submit is not
// decided by the unsynced limits. When the sync fails, both get
// storage; when it succeeds, the submit is decided by the published
// limits and rejected.
func TestStoreHeldSyncHidesLimits(t *testing.T) {
	for _, fail := range []bool{true, false} {
		t.Run(fmt.Sprintf("sync-fails=%v", fail), func(t *testing.T) {
			srv, st := storeServer(t)
			operator, tenant := newClient(t, srv), newClient(t, srv)
			hold := holdNextSync(t, st)
			ctlCh := async(func() (*ControlResponse, error) {
				return operator.Control("acme", ControlRequest{Op: ControlLimits, Limits: &Limits{MaxSensors: 4}})
			})
			<-hold.held
			subCh := async(func() (*SubmitResponse, error) {
				return tenant.Submit("acme", SubmitRequest{Name: "field-a", Spec: testSpec(8, 5, 3, 1)})
			})
			staysUnanswered(t, "submit", subCh)

			if fail {
				hold.settle(errInjected)
			} else {
				hold.settle(nil)
			}
			ctl, sub := <-ctlCh, <-subCh
			if fail {
				if !isCode(ctl.err, CodeStorage) || !isCode(sub.err, CodeStorage) {
					t.Fatalf("after the failed sync: limits %+v, %v; submit %+v, %v; want %s for both",
						ctl.resp, ctl.err, sub.resp, sub.err, CodeStorage)
				}
				if got := srv.reg.Limits(); got.MaxSensors != DefaultMaxSensors {
					t.Fatalf("failed limits change published: %+v", got)
				}
				return
			}
			if ctl.err != nil || ctl.resp.Limits.MaxSensors != 4 {
				t.Fatalf("limits change: %+v, %v", ctl.resp, ctl.err)
			}
			if !isCode(sub.err, CodeRejected) {
				t.Fatalf("submit after the synced limits: want %s, got %+v, %v", CodeRejected, sub.resp, sub.err)
			}
		})
	}
}

// TestStoreLimitsReplayMatchesLive races limits changes from 8
// connections, 20 each and each setting one field, so the effective
// limits depend on the order the changes apply. After the server
// closes, replaying its log must restore the live daemon's limits in
// every round: the log order is the publish order. Publishing before
// logging diverged in 9 of 160 rounds, so 100 rounds catch it.
func TestStoreLimitsReplayMatchesLive(t *testing.T) {
	const rounds, conns, changes = 100, 8, 20
	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		st, rec, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(Config{})
		if _, err := srv.UseStore(st, rec); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			cli := newClient(t, srv)
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				defer cli.Close()
				for i := 0; i < changes; i++ {
					v := 1 + c*changes + i
					l := []Limits{{MaxSensors: v}, {MaxTargets: v}, {MaxDeployments: v}}[(c+i)%3]
					if _, err := cli.Control("acme", ControlRequest{Op: ControlLimits, Limits: &l}); err != nil {
						t.Errorf("round %d: connection %d: %v", round, c, err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		live := srv.reg.Limits()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		st2, rec2, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		st2.Close()
		srv2 := NewServer(Config{})
		if _, err := srv2.Restore(rec2); err != nil {
			t.Fatal(err)
		}
		if got := srv2.reg.Limits(); got != live {
			t.Fatalf("round %d: replay restored %+v, the live daemon held %+v", round, got, live)
		}
	}
}

// sweepFile is a wal.log that faults one append: its write persists
// only the first cut bytes and fails (cut 0 writes nothing), or, when
// cut < 0, its write succeeds and its sync fails. It skips the disk
// flush: the sweep checks what the daemon tells clients and what a
// restart recovers, and the reopened file is read back from the page
// cache either way.
type sweepFile struct {
	walFile
	fault, cut int
	writes     int
}

func (f *sweepFile) Write(p []byte) (int, error) {
	f.writes++
	if f.writes-1 == f.fault && f.cut >= 0 {
		n, _ := f.walFile.Write(p[:f.cut])
		return n, errInjected
	}
	return f.walFile.Write(p)
}

func (f *sweepFile) Sync() error {
	if f.writes-1 == f.fault && f.cut < 0 {
		return errInjected
	}
	return nil
}

// TestStoreFaultSweep injects one storage fault into each append of the
// crash script in turn: a failed sync, or a short write at every offset
// of the record (sampled under -short and -race). The daemon serves the
// rest of the script, then restarts from its data dir. Recovery never
// fail-stops; every admission a client was told of recovers at the Seq
// it was told; the recovered state is the fault-free daemon's after the
// acknowledged records, plus the faulted record only when its bytes are
// all on disk, and nothing after it; and the limits are the last
// acknowledged ones or the faulted record's.
func TestStoreFaultSweep(t *testing.T) {
	walBytes := recordCrashSession(t)
	recs, _, _ := decodeWAL(walBytes)
	script := crashScript(t)
	// digests[k] is the state after the first k records.
	digests := make([]string, len(recs)+1)
	for k := range digests {
		srv := NewServer(crashSessionConfig())
		if _, err := srv.Restore(&Recovered{Records: recs[:k]}); err != nil {
			t.Fatal(err)
		}
		digests[k] = stateDigest(t, srv)
	}
	root := t.TempDir()
	runs := 0
	for i, r := range recs {
		size := len(appendWALRecord(nil, r))
		cuts := []int{-1}
		for cut := 0; cut < size; cut++ {
			sampled := cut <= 1 || cut == walHeaderLen-1 || cut == walHeaderLen || cut == size-1 || cut%97 == 0
			if sampled || !(testing.Short() || raceEnabled) {
				cuts = append(cuts, cut)
			}
		}
		for _, cut := range cuts {
			runs++
			dir := filepath.Join(root, fmt.Sprintf("append%d-cut%d", i, cut))
			st, rec, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			st.f = &sweepFile{walFile: st.f, fault: i, cut: cut}
			srv := NewServer(crashSessionConfig())
			if _, err := srv.UseStore(st, rec); err != nil {
				t.Fatal(err)
			}
			cli := newClient(t, srv)
			answers := runCrashScript(cli, script)
			cli.Close()
			srv.Close() // after a failed sync, the close's sync fails too

			st2, rec2, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				t.Fatalf("append %d cut %d: reopen: %v", i, cut, err)
			}
			srv2 := NewServer(crashSessionConfig())
			if _, err := srv2.UseStore(st2, rec2); err != nil {
				t.Fatalf("append %d cut %d: recovery fail-stopped: %v", i, cut, err)
			}
			if lsn := st2.LSN(); lsn != uint64(len(rec2.Records)) {
				t.Fatalf("append %d cut %d: recovery appended to the log (LSN %d after %d records)", i, cut, lsn, len(rec2.Records))
			}
			checkSweepRun(t, fmt.Sprintf("append %d cut %d", i, cut), srv2, script, answers, recs[i])
			want := digests[i]
			if cut < 0 {
				want = digests[i+1] // the whole record reached the file
			}
			if got := stateDigest(t, srv2); got != want {
				t.Fatalf("append %d cut %d: recovered state is not the fault-free daemon's after %d records", i, cut, len(rec2.Records))
			}
			srv2.Close()
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("%d faulted runs over %d appends (%d bytes)", runs, len(recs), len(walBytes))
}

// checkSweepRun checks a restarted daemon against what the faulted one
// told its client: every acknowledged submit is registered at its Seq,
// and the limits are the last acknowledged ones or those of the faulted
// record.
func checkSweepRun(t *testing.T, label string, srv *Server, script []crashStep, answers []crashAnswer, faulted WALRecord) {
	t.Helper()
	limits := newRegistry(crashSessionConfig().Limits).Limits()
	for k, a := range answers {
		switch {
		case a.sub != nil:
			d, ok := srv.reg.get(script[k].tenant, a.sub.Fingerprint)
			if !ok || d.rec.Seq != a.sub.Seq {
				t.Fatalf("%s: step %d was told %s at seq %d; the restart holds it %v", label, k, a.sub.Fingerprint, a.sub.Seq, ok)
			}
		case a.limits != nil:
			limits = *a.limits
		}
	}
	got := srv.reg.Limits()
	if got == limits {
		return
	}
	var lim LimitsRecord
	if faulted.Kind != RecordLimits || decodeStrictJSON(faulted.Payload, &lim) != nil || got != lim.Limits {
		t.Fatalf("%s: restart holds limits %+v; the last acknowledged were %+v", label, got, limits)
	}
}
