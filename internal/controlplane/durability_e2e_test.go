package controlplane

import (
	"errors"
	"fmt"
	"net"
	"os"
	"testing"
	"time"
)

// TestE2ERestartDifferential is the acceptance differential for the
// durability layer: a daemon is stopped (cleanly, or by crash) and
// restarted from its data directory; the restarted daemon must hold
// bit-identical control state — same fingerprints, Seq, list order,
// effective limits — and then serve the full plan/replan differential
// session exactly as a daemon that never stopped would
// (differentialSession proves every response bit-identical to direct
// engine calls, which is the same yardstick the never-crashed daemon is
// held to). Both stops leave WAL-only state; the legacy variant's run
// compacts mid-session through Store.WriteCheckpoint, as earlier builds
// did, and restarts from the checkpoint plus its tail.
func TestE2ERestartDifferential(t *testing.T) {
	spec := testSpec(40, 25, 3, 42)
	aux := testSpec(6, 4, 2, 7)

	variants := []struct {
		name   string
		clean  bool // stop via Close vs. abandon (crash)
		legacy bool // compact after the two submits, as earlier builds did
	}{
		{"clean-shutdown", true, false},
		{"crash-wal-only", false, false},
		{"crash-checkpoint-plus-tail", false, true},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			dir := t.TempDir()
			st, rec, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			srv1 := NewServer(Config{})
			if _, err := srv1.UseStore(st, rec); err != nil {
				t.Fatal(err)
			}
			cli1 := newClient(t, srv1)
			if _, err := cli1.Submit("acme", SubmitRequest{Name: "diff", Spec: spec}); err != nil {
				t.Fatal(err)
			}
			if _, err := cli1.Submit("acme", SubmitRequest{Name: "aux", Spec: aux}); err != nil {
				t.Fatal(err)
			}
			if v.legacy {
				compactLegacy(t, srv1, st)
			}
			if _, err := cli1.Control("acme", ControlRequest{Op: ControlLimits,
				Limits: &Limits{MaxDeployments: 11}}); err != nil {
				t.Fatal(err)
			}
			// The restarted daemon also recomputes plans; give the original a
			// live session so the restart provably does NOT depend on it.
			if _, err := cli1.Plan("acme", PlanRequest{Fingerprint: mustFingerprint(t, spec)}); err != nil {
				t.Fatal(err)
			}
			want := stateDigest(t, srv1)
			if v.clean {
				if err := srv1.Close(); err != nil {
					t.Fatal(err)
				}
			}
			// Crash variants simply abandon srv1: the store's appends are
			// already synced; nothing else may run against it.

			st2, rec2, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if v.legacy {
				if rec2.Checkpoint == nil || len(rec2.Records) != 1 {
					t.Fatalf("mid-session compaction must leave checkpoint+tail: cp=%v tail=%d",
						rec2.Checkpoint != nil, len(rec2.Records))
				}
			} else if rec2.Checkpoint != nil || len(rec2.Records) != 3 {
				t.Fatalf("stop must leave WAL-only state: cp=%v tail=%d",
					rec2.Checkpoint != nil, len(rec2.Records))
			}
			srv2 := NewServer(Config{})
			stats, err := srv2.UseStore(st2, rec2)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv2.Close() })
			if stats.Snapshots != 2 || stats.Tenants != 1 {
				t.Fatalf("recovered %d snapshots across %d tenants, want 2/1", stats.Snapshots, stats.Tenants)
			}
			if got := stateDigest(t, srv2); got != want {
				t.Fatalf("restarted state diverges from the daemon that never stopped:\n got %s\nwant %s", got, want)
			}

			// The restarted daemon serves the whole differential session
			// bit-identically (the Submit inside is an idempotent resubmit of
			// the recovered snapshot — which itself proves the recovered spec
			// re-fingerprints to its recorded identity).
			cli2 := newClient(t, srv2)
			if sub, err := cli2.Submit("acme", SubmitRequest{Name: "diff", Spec: spec}); err != nil || !sub.Resubmitted {
				t.Fatalf("recovered snapshot not resubmit-idempotent: %+v, %v", sub, err)
			}
			differentialSession(t, cli2, "acme", spec, fullScript())
		})
	}
}

// TestSubmitNeverCompacts pins the log as the state: 70 admissions and
// a limits change through a store-backed server — past the cadence at
// which earlier builds wrote a checkpoint and truncated the log — leave
// no checkpoint.json and the whole log, LSNs 1..71. A reopen after
// abandoning the server, and again after closing it, recovers from the
// log alone to the same state.
func TestSubmitNeverCompacts(t *testing.T) {
	dir := t.TempDir()
	st, rec, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{})
	if _, err := srv.UseStore(st, rec); err != nil {
		t.Fatal(err)
	}
	cli := newClient(t, srv)
	for i := 0; i < 70; i++ {
		if i == 35 {
			if _, err := cli.Control("acme", ControlRequest{Op: ControlLimits,
				Limits: &Limits{MaxDeployments: 100}}); err != nil {
				t.Fatal(err)
			}
		}
		tenant := []string{"acme", "globex"}[i%2]
		if _, err := cli.Submit(tenant, SubmitRequest{Name: fmt.Sprintf("field-%d", i),
			Spec: testSpec(5, 3, 2, uint64(100+i))}); err != nil {
			t.Fatalf("admission %d: %v", i, err)
		}
		if st.ShouldCheckpoint() {
			t.Fatalf("admission %d: store asks for a checkpoint", i)
		}
	}
	if _, err := os.Stat(checkpointPath(dir)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("checkpoint.json written (%v)", err)
	}
	data, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, torn := decodeWAL(data)
	if torn != nil || len(recs) != 71 {
		t.Fatalf("log holds %d records (torn %v), want 71", len(recs), torn)
	}
	for i, r := range recs {
		if r.LSN != uint64(i)+1 {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
	want := stateDigest(t, srv)

	reopen := func(label string) {
		t.Helper()
		st2, rec2, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer st2.Close()
		if rec2.Checkpoint != nil || len(rec2.Records) != 71 || rec2.TornTail != nil {
			t.Fatalf("%s: recovered checkpoint %v, %d records, torn %v",
				label, rec2.Checkpoint != nil, len(rec2.Records), rec2.TornTail)
		}
		srv2 := NewServer(Config{})
		if _, err := srv2.Restore(rec2); err != nil {
			t.Fatal(err)
		}
		if got := stateDigest(t, srv2); got != want {
			t.Fatalf("%s: recovered state diverges:\n got %s\nwant %s", label, got, want)
		}
	}
	reopen("abandoned")
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(checkpointPath(dir)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Close wrote checkpoint.json (%v)", err)
	}
	reopen("closed")
}

// TestRestoreStatusBuildsNoPlanner restarts a daemon whose deployments
// were never planned: status on each replayed entry answers what the
// writing daemon answered (Seq, slots, ρ, present sensors), and the
// entry still has no planner, since status reads the period from the
// normalized spec.
func TestRestoreStatusBuildsNoPlanner(t *testing.T) {
	specs := []DeploymentSpec{testSpec(8, 5, 3, 1), testSpec(6, 4, 0.5, 2), testSpec(7, 4, 3.0000000001, 3)}
	dir := t.TempDir()
	st, rec, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{})
	if _, err := srv.UseStore(st, rec); err != nil {
		t.Fatal(err)
	}
	cli := newClient(t, srv)
	fps := make([]string, len(specs))
	want := make([]StatusInfo, len(specs))
	for i, spec := range specs {
		sub, err := cli.Submit("acme", SubmitRequest{Name: fmt.Sprintf("field-%d", i), Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		q, err := cli.Query("acme", QueryRequest{Fingerprint: sub.Fingerprint, What: QueryStatus})
		if err != nil {
			t.Fatal(err)
		}
		fps[i], want[i] = sub.Fingerprint, *q.Status
	}
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
	cli2 := newClient(t, srv2)
	for i, fp := range fps {
		q, err := cli2.Query("acme", QueryRequest{Fingerprint: fp, What: QueryStatus})
		if err != nil {
			t.Fatal(err)
		}
		if *q.Status != want[i] {
			t.Errorf("%s: replayed status %+v, the writing daemon reported %+v", fp, *q.Status, want[i])
		}
		d, _ := srv2.reg.get("acme", fp)
		d.mu.Lock()
		built := d.planner != nil
		d.mu.Unlock()
		if built {
			t.Errorf("%s: status built the replayed entry's planner", fp)
		}
	}
}

// mustFingerprint computes the admission identity of a spec exactly as
// the daemon does.
func mustFingerprint(t *testing.T, spec DeploymentSpec) string {
	t.Helper()
	norm, err := Normalize(spec)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := Fingerprint(norm)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestE2EWatcherPollerDifferential proves the watch push stream
// equivalent to polling: an actor drives the full perturbation script
// while a watcher on a second connection receives pushes, and every
// pushed payload must equal the actor's response bit for bit
// (Float64bits on utilities and gaps, exact schedule assignments),
// with gap-free Seq numbering.
func TestE2EWatcherPollerDifferential(t *testing.T) {
	cli, srv := newTestPair(t, Config{})
	sub, err := cli.Submit("acme", SubmitRequest{Name: "watched", Spec: testSpec(40, 25, 3, 42)})
	if err != nil {
		t.Fatal(err)
	}

	cliW := newClient(t, srv)
	w, err := cliW.Watch("acme", sub.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if w.Events != 0 {
		t.Fatalf("fresh deployment reports %d prior events", w.Events)
	}
	// A second, transient watcher: the server counts subscriptions per
	// deployment (closed again before any push so it need not read).
	cliW2 := newClient(t, srv)
	w2, err := cliW2.Watch("acme", sub.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if qs, err := cli.Query("acme", QueryRequest{Fingerprint: sub.Fingerprint, What: QueryStatus}); err != nil ||
		qs.Status == nil || qs.Status.Watchers != 2 {
		t.Fatalf("status watchers: %+v, %v", qs.Status, err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// The watcher must be actively reading while the actor works: pushes
	// are written synchronously on the acting request's path.
	script := fullScript()
	wantEvents := 1 + len(script) // the plan push + one per replan
	type pushed struct {
		ev  *WatchEvent
		err error
	}
	stream := make(chan pushed, wantEvents)
	go func() {
		for i := 0; i < wantEvents; i++ {
			ev, err := w.Next()
			stream <- pushed{ev, err}
			if err != nil {
				return
			}
		}
	}()

	// Actor side: poll-style responses, recorded for comparison.
	plan, err := cli.Plan("acme", PlanRequest{Fingerprint: sub.Fingerprint})
	if err != nil {
		t.Fatal(err)
	}
	replans := make([]*ReplanResponse, 0, len(script))
	for _, ev := range script {
		r, err := cli.Replan("acme", ReplanRequest{
			Fingerprint: sub.Fingerprint, Op: ev.op, IDs: ev.ids, Rho: ev.rho,
			WithGap: true, WithSchedule: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		replans = append(replans, r)
	}

	events := make([]*WatchEvent, 0, wantEvents)
	for i := 0; i < wantEvents; i++ {
		p := <-stream
		if p.err != nil {
			t.Fatalf("push %d: %v", i, p.err)
		}
		events = append(events, p.ev)
	}

	for i, ev := range events {
		if ev.Seq != uint64(i)+1 {
			t.Fatalf("push %d: Seq %d — stream not gap-free", i, ev.Seq)
		}
		if ev.Fingerprint != sub.Fingerprint {
			t.Fatalf("push %d: fingerprint %q", i, ev.Fingerprint)
		}
	}
	// Push 0 mirrors the plan response.
	ev0 := events[0]
	if ev0.Kind != WatchEventPlan || ev0.Plan == nil {
		t.Fatalf("first push is not the plan event: %+v", ev0)
	}
	if !sameBits(ev0.Plan.Utility, plan.Utility) || ev0.Plan.Engine != plan.Engine ||
		ev0.Plan.Mode != plan.Mode || ev0.Plan.Slots != plan.Slots {
		t.Fatalf("pushed plan diverges from polled plan:\npush %+v\npoll %+v", ev0.Plan, plan)
	}
	mustEqualSchedules(t, "pushed plan", ev0.Plan.Schedule, plan.Schedule)
	// Pushes 1..n mirror the replan responses.
	for i, want := range replans {
		ev := events[i+1]
		label := "pushed replan " + script[i].op
		if ev.Kind != WatchEventReplan || ev.Replan == nil {
			t.Fatalf("%s: wrong event %+v", label, ev)
		}
		got := ev.Replan
		if got.Changed != want.Changed || got.Dirty != want.Dirty ||
			got.Rounds != want.Rounds || got.Moves != want.Moves || got.Full != want.Full {
			t.Fatalf("%s: stats diverge:\npush %+v\npoll %+v", label, got, want)
		}
		if !sameBits(got.Utility, want.Utility) || !sameBits(got.UtilityBefore, want.UtilityBefore) {
			t.Fatalf("%s: utilities diverge: push (%v→%v), poll (%v→%v)",
				label, got.UtilityBefore, got.Utility, want.UtilityBefore, want.Utility)
		}
		if got.Gap == nil || want.Gap == nil || !sameBits(*got.Gap, *want.Gap) {
			t.Fatalf("%s: gaps diverge: push %v, poll %v", label, got.Gap, want.Gap)
		}
		mustEqualSchedules(t, label, got.Schedule, want.Schedule)
	}

	// Unsubscribe returns the connection to request/response use and
	// stops the pushes: a further replan must not reach cliW, which a
	// follow-up query on that very connection proves (a stray push would
	// surface as a protocol error — or a deadlock — here).
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Replan("acme", ReplanRequest{Fingerprint: sub.Fingerprint,
		Op: ReplanKill, IDs: []int{1}}); err != nil {
		t.Fatal(err)
	}
	qs, err := cliW.Query("acme", QueryRequest{Fingerprint: sub.Fingerprint, What: QueryStatus})
	if err != nil {
		t.Fatalf("connection not clean after unsubscribe: %v", err)
	}
	if qs.Status.Watchers != 0 {
		t.Fatalf("watchers after unsubscribe: %d", qs.Status.Watchers)
	}
	if qs.Status.Objective != ObjectiveUtility {
		t.Fatalf("status objective %q after utility planning", qs.Status.Objective)
	}
	// The unobserved replan still numbered its event: a new subscriber
	// sees the full count, so reconnecting watchers detect missed events.
	w3, err := cliW.Watch("acme", sub.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if w3.Events != uint64(wantEvents)+1 {
		t.Fatalf("event counter %d after %d observed + 1 unobserved events", w3.Events, wantEvents)
	}
	if err := w3.Close(); err != nil {
		t.Fatal(err)
	}
}

// within runs f and waits at most d for its result; ok is false when f
// is still running.
func within(d time.Duration, f func() error) (ok bool, err error) {
	res := make(chan error, 1)
	go func() { res <- f() }()
	select {
	case err := <-res:
		return true, err
	case <-time.After(d):
		return false, nil
	}
}

// TestE2EWatcherHalfClosed stalls the push path on purpose. A watcher
// subscribes over TCP and never reads, so once the socket buffers fill
// (a few hundred pushes of an n = 4000 schedule), a replan's push
// blocks while it holds the deployment's lock. The watcher then leaves
// without unsubscribing: half-closed (CloseWrite, so the server reads
// EOF while its pending write never drains) or disconnected. The
// blocked replan must answer, the next replan too, and status must
// count no watchers: the server closes the watcher's connection before
// it takes the deployment's lock to drop the subscription.
func TestE2EWatcherHalfClosed(t *testing.T) {
	spec := fieldSpec(t, 4000)
	for _, c := range []struct {
		name  string
		leave func(*net.TCPConn) error
	}{
		{"half-closed", (*net.TCPConn).CloseWrite},
		{"disconnected", (*net.TCPConn).Close},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := NewServer(Config{})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
			t.Cleanup(func() { srv.Close() })
			cli, err := Dial(ln.Addr().String(), "actor")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cli.Close() })
			sub, err := cli.Submit("acme", SubmitRequest{Name: "field", Spec: spec})
			if err != nil {
				t.Fatal(err)
			}
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { conn.Close() })
			watcher, err := NewClient(conn, "stalled-watcher")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := watcher.Watch("acme", sub.Fingerprint); err != nil {
				t.Fatal(err)
			}

			// Kill one sensor and deploy it back, over and over; every
			// push carries the whole repaired schedule.
			replan := func(i int) func() error {
				return func() error {
					op := ReplanKill
					if i%2 == 1 {
						op = ReplanDeploy
					}
					_, err := cli.Replan("acme", ReplanRequest{Fingerprint: sub.Fingerprint, Op: op, IDs: []int{i / 2}})
					return err
				}
			}
			const maxReplans = 8000
			var (
				next    int
				blocked chan error
			)
			for blocked == nil {
				if next == maxReplans {
					t.Fatalf("%d pushes never filled the unread socket", maxReplans)
				}
				res := make(chan error, 1)
				go func(f func() error) { res <- f() }(replan(next))
				next++
				select {
				case err := <-res:
					if err != nil {
						t.Fatalf("replan %d: %v", next-1, err)
					}
				case <-time.After(time.Second):
					blocked = res
				}
			}
			t.Logf("replan %d blocked on its push", next-1)

			if err := c.leave(conn.(*net.TCPConn)); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-blocked:
				if err != nil {
					t.Fatalf("blocked replan: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("blocked replan did not answer within 5 s of the watcher leaving")
			}
			if ok, err := within(5*time.Second, replan(next)); !ok || err != nil {
				t.Fatalf("next replan: answered %v, error %v", ok, err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				qs, err := cli.Query("acme", QueryRequest{Fingerprint: sub.Fingerprint, What: QueryStatus})
				if err != nil {
					t.Fatal(err)
				}
				if qs.Status.Watchers == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("status still counts %d watchers", qs.Status.Watchers)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestE2EObjectiveSurfaced pins the objective field through both read
// paths: empty until a plan establishes one (pre-objective encodings
// byte-identical), then tracking the last-planned objective per
// deployment — including flipping back when a utility query
// re-establishes the incremental session on a lifetime-planned
// deployment.
func TestE2EObjectiveSurfaced(t *testing.T) {
	cli, _ := newTestPair(t, Config{})
	subU, err := cli.Submit("acme", SubmitRequest{Name: "field-u", Spec: testSpec(12, 8, 3, 21)})
	if err != nil {
		t.Fatal(err)
	}
	subL, err := cli.Submit("acme", SubmitRequest{Name: "field-l", Spec: testSpec(10, 6, 2, 22)})
	if err != nil {
		t.Fatal(err)
	}
	byFP := func(t *testing.T) map[string]string {
		t.Helper()
		list, err := cli.List("acme")
		if err != nil {
			t.Fatal(err)
		}
		m := make(map[string]string, len(list.Snapshots))
		for _, s := range list.Snapshots {
			m[s.Fingerprint] = s.Objective
		}
		return m
	}

	if m := byFP(t); m[subU.Fingerprint] != "" || m[subL.Fingerprint] != "" {
		t.Fatalf("objective set before any plan: %v", m)
	}
	if _, err := cli.Plan("acme", PlanRequest{Fingerprint: subU.Fingerprint}); err != nil {
		t.Fatal(err)
	}
	plan, err := cli.Plan("acme", PlanRequest{Fingerprint: subL.Fingerprint, Objective: ObjectiveLifetime})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Objective != ObjectiveLifetime || plan.Lifetime == nil {
		t.Fatalf("lifetime plan response: %+v", plan)
	}
	if m := byFP(t); m[subU.Fingerprint] != ObjectiveUtility || m[subL.Fingerprint] != ObjectiveLifetime {
		t.Fatalf("objectives after planning both: %v", m)
	}
	qs, err := cli.Query("acme", QueryRequest{Fingerprint: subL.Fingerprint, What: QueryStatus})
	if err != nil || qs.Status == nil || qs.Status.Objective != ObjectiveLifetime {
		t.Fatalf("lifetime status: %+v, %v", qs.Status, err)
	}
	// A utility query establishes the incremental session, so the
	// deployment's live objective flips back to utility.
	if _, err := cli.Query("acme", QueryRequest{Fingerprint: subL.Fingerprint, What: QueryUtility}); err != nil {
		t.Fatal(err)
	}
	if m := byFP(t); m[subL.Fingerprint] != ObjectiveUtility {
		t.Fatalf("objective after utility query on lifetime deployment: %v", m)
	}
}

// TestE2EWatchValidation pins the watch error surface: unknown
// fingerprints and bad ops are typed wire errors, and unsubscribing
// without a subscription is answered (not an error) with
// Subscribed=false.
func TestE2EWatchValidation(t *testing.T) {
	cli, _ := newTestPair(t, Config{})
	sub, err := cli.Submit("acme", SubmitRequest{Name: "w", Spec: testSpec(6, 4, 2, 9)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Watch("acme", "no-such-deployment"); !isCode(err, CodeNotFound) {
		t.Fatalf("unknown fingerprint: want %s, got %v", CodeNotFound, err)
	}
	if _, err := cli.Watch("globex", sub.Fingerprint); !isCode(err, CodeNotFound) {
		t.Fatalf("cross-tenant watch: want %s, got %v", CodeNotFound, err)
	}
	resp, err := cli.roundTrip(&Request{Op: OpWatch, Tenant: "acme",
		Watch: &WatchRequest{Fingerprint: sub.Fingerprint, Op: "subscrib"}})
	if !isCode(err, CodeBadRequest) {
		t.Fatalf("bad watch op: want %s, got (%+v, %v)", CodeBadRequest, resp, err)
	}
	resp, err = cli.roundTrip(&Request{Op: OpWatch, Tenant: "acme",
		Watch: &WatchRequest{Fingerprint: sub.Fingerprint, Op: WatchUnsubscribe}})
	if err != nil || resp.Watch == nil || resp.Watch.Subscribed || resp.Watch.Watchers != 0 {
		t.Fatalf("idle unsubscribe: %+v, %v", resp, err)
	}
}
