package controlplane

import (
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"

	"cool"
	"cool/internal/stats"
)

// newTestPair starts an in-process server and a connected client over
// a net.Pipe — the whole wire stack (framing, handshake, dispatch)
// with no sockets.
func newTestPair(t *testing.T, cfg Config) (*Client, *Server) {
	t.Helper()
	srv := NewServer(cfg)
	cc, sc := net.Pipe()
	go srv.ServeConn(sc)
	cli, err := NewClient(cc, "e2e-test")
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
	})
	return cli, srv
}

// newClient attaches one more client connection to a running server.
func newClient(t *testing.T, srv *Server) *Client {
	t.Helper()
	cc, sc := net.Pipe()
	go srv.ServeConn(sc)
	cli, err := NewClient(cc, "e2e-test")
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// testSpec builds a deterministic random deployment.
func testSpec(n, m int, rho float64, seed uint64) DeploymentSpec {
	rng := stats.NewRNG(seed)
	const side, reach = 100.0, 22.0
	spec := DeploymentSpec{Rho: rho}
	for i := 0; i < n; i++ {
		spec.Sensors = append(spec.Sensors, SensorSpec{
			X: rng.Float64() * side, Y: rng.Float64() * side, Range: reach,
		})
	}
	for j := 0; j < m; j++ {
		spec.Targets = append(spec.Targets, TargetSpec{
			X: rng.Float64() * side, Y: rng.Float64() * side, Weight: 1 + rng.Float64(),
		})
	}
	return spec
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// mustEqualSchedules asserts bit-identity of two schedules: same mode,
// same period, same assignment of every sensor.
func mustEqualSchedules(t *testing.T, label string, got, want *cool.Schedule) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil schedule (got %v, want %v)", label, got, want)
	}
	if got.Mode() != want.Mode() || got.Period() != want.Period() {
		t.Fatalf("%s: shape mismatch: got (%v, %d), want (%v, %d)",
			label, got.Mode(), got.Period(), want.Mode(), want.Period())
	}
	if ga, wa := got.Assignment(), want.Assignment(); !reflect.DeepEqual(ga, wa) {
		t.Fatalf("%s: assignment mismatch:\n got %v\nwant %v", label, ga, wa)
	}
}

// sessionEvent is one scripted perturbation of the differential
// session — the wire-side mirror of a coolsim -kill/-deploy/-drift
// script.
type sessionEvent struct {
	op  string
	ids []int
	rho float64
}

// differentialSession drives the full perturbation script through a
// live client↔server pair and, in lockstep, through direct
// Planner.Incremental calls, asserting every response bit-identical:
// the committed schedule, the maintained utility, every RepairStats
// field, and the reported gap versus a full replan. This is the proof
// that the daemon is a transparent transport over the engines.
func differentialSession(t *testing.T, cli *Client, tenant string, spec DeploymentSpec, events []sessionEvent) {
	t.Helper()

	// Wire side: admission + initial plan.
	sub, err := cli.Submit(tenant, SubmitRequest{Name: "diff", Spec: spec})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	plan, err := cli.Plan(tenant, PlanRequest{Fingerprint: sub.Fingerprint})
	if err != nil {
		t.Fatalf("plan: %v", err)
	}

	// Direct side: the exact same construction the daemon performs.
	norm, err := Normalize(spec)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	planner, err := BuildPlanner(norm)
	if err != nil {
		t.Fatalf("build planner: %v", err)
	}
	inc, err := planner.Incremental()
	if err != nil {
		t.Fatalf("incremental: %v", err)
	}
	directSched, err := inc.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	mustEqualSchedules(t, "initial plan", plan.Schedule, directSched)
	if !sameBits(plan.Utility, inc.Utility()) {
		t.Fatalf("initial utility: wire %v, direct %v", plan.Utility, inc.Utility())
	}

	for i, ev := range events {
		label := fmt.Sprintf("event %d (%s %v rho=%g)", i, ev.op, ev.ids, ev.rho)
		wire, err := cli.Replan(tenant, ReplanRequest{
			Fingerprint:  sub.Fingerprint,
			Op:           ev.op,
			IDs:          ev.ids,
			Rho:          ev.rho,
			WithGap:      true,
			WithSchedule: true,
		})
		if err != nil {
			t.Fatalf("%s: wire replan: %v", label, err)
		}
		var st cool.RepairStats
		switch ev.op {
		case ReplanKill:
			st, err = inc.KillSensors(ev.ids)
		case ReplanDeploy:
			st, err = inc.DeploySensors(ev.ids)
		case ReplanDrift:
			st, err = inc.UpdateRho(ev.rho)
		}
		if err != nil {
			t.Fatalf("%s: direct replan: %v", label, err)
		}
		if wire.Changed != st.Changed || wire.Dirty != st.Dirty ||
			wire.Rounds != st.Rounds || wire.Moves != st.Moves || wire.Full != st.Full {
			t.Fatalf("%s: stats mismatch: wire %+v, direct %+v", label, wire, st)
		}
		if !sameBits(wire.UtilityBefore, st.UtilityBefore) || !sameBits(wire.Utility, st.Utility) {
			t.Fatalf("%s: utility mismatch: wire (%v → %v), direct (%v → %v)",
				label, wire.UtilityBefore, wire.Utility, st.UtilityBefore, st.Utility)
		}
		directGap, err := inc.Gap()
		if err != nil {
			t.Fatal(err)
		}
		if wire.Gap == nil || !sameBits(*wire.Gap, directGap) {
			t.Fatalf("%s: gap mismatch: wire %v, direct %v", label, wire.Gap, directGap)
		}
		directSched, err := inc.Schedule()
		if err != nil {
			t.Fatal(err)
		}
		mustEqualSchedules(t, label, wire.Schedule, directSched)
		if err := directSched.CheckFeasible(inc.Period()); err != nil {
			t.Fatalf("%s: committed schedule infeasible: %v", label, err)
		}
	}

	// Final state through every query path.
	qs, err := cli.Query(tenant, QueryRequest{Fingerprint: sub.Fingerprint, What: QuerySchedule})
	if err != nil {
		t.Fatal(err)
	}
	finalSched, err := inc.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	mustEqualSchedules(t, "final query", qs.Schedule, finalSched)
	qu, err := cli.Query(tenant, QueryRequest{Fingerprint: sub.Fingerprint, What: QueryUtility})
	if err != nil {
		t.Fatal(err)
	}
	if qu.Utility == nil || !sameBits(*qu.Utility, inc.Utility()) {
		t.Fatalf("final utility: wire %v, direct %v", qu.Utility, inc.Utility())
	}
	qg, err := cli.Query(tenant, QueryRequest{Fingerprint: sub.Fingerprint, What: QueryGap})
	if err != nil {
		t.Fatal(err)
	}
	directGap, err := inc.Gap()
	if err != nil {
		t.Fatal(err)
	}
	if qg.Gap == nil || !sameBits(*qg.Gap, directGap) {
		t.Fatalf("final gap: wire %v, direct %v", qg.Gap, directGap)
	}
	st, err := cli.Query(tenant, QueryRequest{Fingerprint: sub.Fingerprint, What: QueryStatus})
	if err != nil {
		t.Fatal(err)
	}
	if st.Status == nil || st.Status.Present != inc.NumPresent() ||
		st.Status.Mode != inc.Mode().String() || st.Status.Slots != inc.Period().Slots() {
		t.Fatalf("status mismatch: wire %+v, direct present=%d mode=%v slots=%d",
			st.Status, inc.NumPresent(), inc.Mode(), inc.Period().Slots())
	}
}

// fullScript is the canonical -kill/-deploy/-drift session: node
// deaths, a reserve coming back, weather drift across ρ = 1 (regime
// flip, full replan) and back.
func fullScript() []sessionEvent {
	return []sessionEvent{
		{op: ReplanKill, ids: []int{3, 7, 11}},
		{op: ReplanDeploy, ids: []int{7}},
		{op: ReplanDrift, rho: 0.5},
		{op: ReplanKill, ids: []int{0, 5}},
		{op: ReplanDrift, rho: 3},
		{op: ReplanDeploy, ids: []int{3, 11}},
	}
}

// TestE2EDifferentialSession is the tentpole harness: a whole
// perturbation session through the wire, bit-identical to direct
// library calls at every step.
func TestE2EDifferentialSession(t *testing.T) {
	cli, _ := newTestPair(t, Config{})
	differentialSession(t, cli, "acme", testSpec(40, 25, 3, 42), fullScript())
}

// TestE2EDifferentialDetection runs the differential session on the
// probabilistic detection utility (the second engine family behind the
// same admission path).
func TestE2EDifferentialDetection(t *testing.T) {
	spec := testSpec(30, 18, 2, 99)
	spec.Utility = UtilityDetection
	spec.DetectProb = 0.4
	cli, _ := newTestPair(t, Config{})
	differentialSession(t, cli, "acme", spec, fullScript())
}

// TestE2EDifferentialRace drives three tenants' full perturbation
// sessions concurrently through one daemon — each over its own
// connection, each differentially checked — with the job pool squeezed
// to 2 so requests actually queue. CI runs this under -race.
func TestE2EDifferentialRace(t *testing.T) {
	_, srv := newTestPair(t, Config{MaxJobs: 2})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		cli := newClient(t, srv)
		tenant := fmt.Sprintf("tenant-%d", i)
		spec := testSpec(30+3*i, 20, 3, 1000+uint64(i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			differentialSession(t, cli, tenant, spec, fullScript())
		}()
	}
	wg.Wait()
}

// TestE2EEngineConsistency proves every plan engine served over the
// wire returns the same schedule bits (they are all locked to the
// greedy by the PR 5/7 equivalence harnesses). Batch-engine utilities
// are bit-identical to the direct PeriodUtility call; the incremental
// engine maintains its utility by marginal-gain accumulation, so it
// matches the same sum up to float re-summation order.
func TestE2EEngineConsistency(t *testing.T) {
	cli, _ := newTestPair(t, Config{})
	spec := testSpec(35, 22, 4, 7)
	sub, err := cli.Submit("acme", SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	base, err := cli.Plan("acme", PlanRequest{Fingerprint: sub.Fingerprint, Engine: EngineGreedy})
	if err != nil {
		t.Fatal(err)
	}
	norm, err := Normalize(spec)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := BuildPlanner(norm)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := planner.Plan(cool.PlanRequest{Algorithm: cool.AlgorithmGreedy})
	if err != nil {
		t.Fatal(err)
	}
	directSched := direct.Schedule
	mustEqualSchedules(t, "greedy vs direct", base.Schedule, directSched)
	if !sameBits(base.Utility, planner.PeriodUtility(directSched)) {
		t.Fatalf("greedy utility: wire %v, direct %v", base.Utility, planner.PeriodUtility(directSched))
	}
	for _, req := range []PlanRequest{
		{Engine: EngineLazy, Workers: 3},
		{Engine: EngineParallel, Workers: 0},
		{Engine: EngineParallel, Workers: 1},
		{Engine: EngineParallel, Workers: 3},
	} {
		label := fmt.Sprintf("%s workers=%d", req.Engine, req.Workers)
		req.Fingerprint = sub.Fingerprint
		got, err := cli.Plan("acme", req)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got.Engine != req.Engine {
			t.Fatalf("%s: response echoes engine %q", label, got.Engine)
		}
		mustEqualSchedules(t, label, got.Schedule, base.Schedule)
		if !sameBits(got.Utility, base.Utility) {
			t.Fatalf("%s: utility %v, want %v", label, got.Utility, base.Utility)
		}
	}
	inc, err := cli.Plan("acme", PlanRequest{Fingerprint: sub.Fingerprint, Engine: EngineIncremental})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualSchedules(t, EngineIncremental, inc.Schedule, base.Schedule)
	if diff := math.Abs(inc.Utility - base.Utility); diff > 1e-9*math.Abs(base.Utility) {
		t.Fatalf("incremental utility %v too far from greedy %v", inc.Utility, base.Utility)
	}
	if _, err := cli.Plan("acme", PlanRequest{Fingerprint: sub.Fingerprint, Engine: "simulated-annealing"}); !isCode(err, CodeBadRequest) {
		t.Fatalf("unknown engine: want bad-request, got %v", err)
	}
}

// TestE2EPlanEngineErrors pins the typed error of every engine and
// objective mismatch the plan op rejects, code and message verbatim.
func TestE2EPlanEngineErrors(t *testing.T) {
	cli, _ := newTestPair(t, Config{})
	sub, err := cli.Submit("acme", SubmitRequest{Spec: testSpec(10, 5, 1, 23)})
	if err != nil {
		t.Fatal(err)
	}
	dspec := testSpec(8, 4, 1, 24)
	dspec.Utility = UtilityDetection
	dspec.DetectProb = 0.6
	dsub, err := cli.Submit("acme", SubmitRequest{Spec: dspec})
	if err != nil {
		t.Fatal(err)
	}
	const detection = "lifetime objective requires a coverage utility (detection deployments have no binary coverage)"
	for _, tc := range []struct {
		fingerprint, engine, objective, want string
	}{
		{sub.Fingerprint, "simulated-annealing", "", `unknown engine "simulated-annealing"`},
		{sub.Fingerprint, EngineHEF, ObjectiveUtility, `unknown engine "hef"`},
		{sub.Fingerprint, EngineGreedy, ObjectiveLifetime, `engine "greedy" does not plan the lifetime objective`},
		{sub.Fingerprint, EngineIncremental, ObjectiveLifetime, `engine "incremental" does not plan the lifetime objective`},
		{sub.Fingerprint, "bogus", ObjectiveLifetime, `engine "bogus" does not plan the lifetime objective`},
		{dsub.Fingerprint, "", ObjectiveLifetime, detection},
		{dsub.Fingerprint, "bogus", ObjectiveLifetime, detection},
	} {
		_, err := cli.Plan("acme", PlanRequest{Fingerprint: tc.fingerprint, Engine: tc.engine, Objective: tc.objective})
		var we *WireError
		if !errors.As(err, &we) || we.Code != CodeBadRequest || we.Message != tc.want {
			t.Errorf("engine %q objective %q: got %v, want %s: %s", tc.engine, tc.objective, err, CodeBadRequest, tc.want)
		}
	}
}

// TestE2ELifetimeObjective exercises the objective field of the plan
// op: lifetime plans flow through the same engine seam, match a direct
// facade call exactly, and the typed-error surface rejects unknown
// objectives, lifetime-incompatible engines and detection deployments.
func TestE2ELifetimeObjective(t *testing.T) {
	cli, _ := newTestPair(t, Config{})
	spec := testSpec(10, 5, 1, 21)
	sub, err := cli.Submit("acme", SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}

	norm, err := Normalize(spec)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := BuildPlanner(norm)
	if err != nil {
		t.Fatal(err)
	}

	for wireEngine, alg := range map[string]cool.Algorithm{
		"":                  cool.AlgorithmHEF, // default engine under the lifetime objective
		EngineHEF:           cool.AlgorithmHEF,
		EngineStripCover:    cool.AlgorithmStripCover,
		EngineLifetimeExact: cool.AlgorithmLifetimeExact,
	} {
		resp, err := cli.Plan("acme", PlanRequest{
			Fingerprint: sub.Fingerprint, Engine: wireEngine, Objective: ObjectiveLifetime,
		})
		if err != nil {
			t.Fatalf("engine %q: %v", wireEngine, err)
		}
		if resp.Objective != ObjectiveLifetime || resp.Lifetime == nil || resp.Schedule != nil {
			t.Fatalf("engine %q: response (objective %q, lifetime %v, schedule %v)",
				wireEngine, resp.Objective, resp.Lifetime, resp.Schedule)
		}
		if resp.Engine != string(alg) {
			t.Errorf("engine %q: echoed %q, want %q", wireEngine, resp.Engine, alg)
		}
		direct, err := planner.Plan(cool.PlanRequest{Objective: cool.ObjectiveLifetime, Algorithm: alg})
		if err != nil {
			t.Fatalf("direct %s: %v", alg, err)
		}
		if resp.Lifetime.Lifetime != direct.Lifetime.Lifetime {
			t.Errorf("%s: wire lifetime %d, direct %d", alg, resp.Lifetime.Lifetime, direct.Lifetime.Lifetime)
		}
		if resp.Lifetime.Horizon != direct.Lifetime.Horizon {
			t.Errorf("%s: wire horizon %d, direct %d", alg, resp.Lifetime.Horizon, direct.Lifetime.Horizon)
		}
		if len(resp.Lifetime.ActiveSlots) != direct.Lifetime.Schedule.Slots() {
			t.Fatalf("%s: wire has %d slots, direct %d", alg,
				len(resp.Lifetime.ActiveSlots), direct.Lifetime.Schedule.Slots())
		}
		for slot, got := range resp.Lifetime.ActiveSlots {
			want := direct.Lifetime.Schedule.ActiveAt(slot)
			if len(got) != len(want) {
				t.Fatalf("%s slot %d: wire %v, direct %v", alg, slot, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s slot %d: wire %v, direct %v", alg, slot, got, want)
				}
			}
		}
	}

	// A utility engine cannot plan the lifetime objective.
	if _, err := cli.Plan("acme", PlanRequest{
		Fingerprint: sub.Fingerprint, Engine: EngineGreedy, Objective: ObjectiveLifetime,
	}); !isCode(err, CodeBadRequest) {
		t.Fatalf("utility engine under lifetime objective: want bad-request, got %v", err)
	}
	// Unknown objectives die at decode time as malformed requests.
	if _, err := cli.Plan("acme", PlanRequest{
		Fingerprint: sub.Fingerprint, Objective: "throughput",
	}); err == nil {
		t.Fatal("unknown objective accepted")
	}
	// Detection deployments have no binary coverage to keep alive.
	dspec := testSpec(8, 4, 1, 22)
	dspec.Utility = UtilityDetection
	dspec.DetectProb = 0.6
	dsub, err := cli.Submit("acme", SubmitRequest{Spec: dspec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Plan("acme", PlanRequest{
		Fingerprint: dsub.Fingerprint, Objective: ObjectiveLifetime,
	}); !isCode(err, CodeBadRequest) {
		t.Fatalf("detection deployment under lifetime objective: want bad-request, got %v", err)
	}
	// The utility objective spelled out explicitly behaves exactly like
	// the default empty objective.
	explicit, err := cli.Plan("acme", PlanRequest{
		Fingerprint: sub.Fingerprint, Engine: EngineGreedy, Objective: ObjectiveUtility,
	})
	if err != nil {
		t.Fatal(err)
	}
	implicit, err := cli.Plan("acme", PlanRequest{Fingerprint: sub.Fingerprint, Engine: EngineGreedy})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualSchedules(t, "explicit-vs-implicit utility objective", explicit.Schedule, implicit.Schedule)
	if !sameBits(explicit.Utility, implicit.Utility) {
		t.Fatalf("explicit utility %v, implicit %v", explicit.Utility, implicit.Utility)
	}
}

// TestE2ESuspendResumeReset exercises serving-state changes without
// redeploy: suspend blocks the data plane (typed error), resume
// restores it, reset drops the live session and the next plan
// re-initializes bit-identically.
func TestE2ESuspendResumeReset(t *testing.T) {
	cli, _ := newTestPair(t, Config{})
	spec := testSpec(25, 15, 3, 11)
	sub, err := cli.Submit("acme", SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	first, err := cli.Plan("acme", PlanRequest{Fingerprint: sub.Fingerprint})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := cli.Control("acme", ControlRequest{Op: ControlSuspend, Fingerprint: sub.Fingerprint}); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Plan("acme", PlanRequest{Fingerprint: sub.Fingerprint}); !isCode(err, CodeSuspended) {
		t.Fatalf("suspended plan: want typed suspended error, got %v", err)
	}
	st, err := cli.Query("acme", QueryRequest{Fingerprint: sub.Fingerprint, What: QueryStatus})
	if err != nil || st.Status == nil || !st.Status.Suspended {
		t.Fatalf("status while suspended: %+v, %v", st, err)
	}

	if _, err := cli.Control("acme", ControlRequest{Op: ControlResume, Fingerprint: sub.Fingerprint}); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Replan("acme", ReplanRequest{Fingerprint: sub.Fingerprint, Op: ReplanKill, IDs: []int{1}}); err != nil {
		t.Fatalf("replan after resume: %v", err)
	}

	if _, err := cli.Control("acme", ControlRequest{Op: ControlReset, Fingerprint: sub.Fingerprint}); err != nil {
		t.Fatal(err)
	}
	fresh, err := cli.Plan("acme", PlanRequest{Fingerprint: sub.Fingerprint})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualSchedules(t, "plan after reset", fresh.Schedule, first.Schedule)
}

// TestE2ETypedErrors checks the typed error frames a client sees for
// the common failure classes.
func TestE2ETypedErrors(t *testing.T) {
	cli, _ := newTestPair(t, Config{})
	if _, err := cli.Plan("acme", PlanRequest{Fingerprint: "no-such"}); !isCode(err, CodeNotFound) {
		t.Fatalf("unknown fingerprint: want not-found, got %v", err)
	}
	bad := testSpec(10, 5, 3, 1)
	bad.Rho = 2.5 // neither ρ nor 1/ρ integral
	if _, err := cli.Submit("acme", SubmitRequest{Spec: bad}); !isCode(err, CodeRejected) {
		t.Fatalf("invalid rho: want rejected, got %v", err)
	}
	spec := testSpec(10, 5, 3, 1)
	sub, err := cli.Submit("acme", SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Replan("acme", ReplanRequest{Fingerprint: sub.Fingerprint, Op: "explode"}); !isCode(err, CodeBadRequest) {
		t.Fatalf("unknown replan op: want bad-request, got %v", err)
	}
}

// TestE2EVersionNegotiation drives the handshake with raw frames: a
// future client is downgraded to the server's max, and a prehistoric
// one is refused with a typed bad-version error.
func TestE2EVersionNegotiation(t *testing.T) {
	_, srv := newTestPair(t, Config{})

	dial := func() net.Conn {
		cc, sc := net.Pipe()
		go srv.ServeConn(sc)
		t.Cleanup(func() { cc.Close() })
		return cc
	}

	// Future client downgrades.
	conn := dial()
	f, err := encodeFrame(Version1, FrameHello, &Hello{MaxVersion: MaxVersion + 9, Client: "future"})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, f); err != nil {
		t.Fatal(err)
	}
	ans, err := ReadFrame(conn)
	if err != nil || ans.Type != FrameHelloAck {
		t.Fatalf("future hello: want ack, got %+v, %v", ans, err)
	}
	ack, err := DecodeHelloAck(ans.Payload)
	if err != nil || ack.Version != MaxVersion {
		t.Fatalf("future hello: want negotiated v%d, got %+v, %v", MaxVersion, ack, err)
	}

	// Below-min client is refused with a typed error.
	conn = dial()
	f, err = encodeFrame(Version1, FrameHello, &Hello{MaxVersion: 0, Client: "ancient"})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, f); err != nil {
		t.Fatal(err)
	}
	ans, err = ReadFrame(conn)
	if err != nil || ans.Type != FrameError {
		t.Fatalf("ancient hello: want error frame, got %+v, %v", ans, err)
	}
	if we := DecodeWireError(ans.Payload); we.Code != CodeBadVersion {
		t.Fatalf("ancient hello: want bad-version, got %+v", we)
	}

	// A frame with an unknown version byte gets a typed error too.
	conn = dial()
	raw := AppendFrame(nil, Frame{Version: Version1, Type: FrameHello, Payload: []byte(`{"max_version":1}`)})
	raw[0] = 0x7f
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	ans, err = ReadFrame(conn)
	if err != nil || ans.Type != FrameError {
		t.Fatalf("bad version byte: want error frame, got %+v, %v", ans, err)
	}
	if we := DecodeWireError(ans.Payload); we.Code != CodeBadVersion {
		t.Fatalf("bad version byte: want bad-version, got %+v", we)
	}
}

// isCode reports whether err is a *WireError with the given code.
func isCode(err error, code ErrorCode) bool {
	var we *WireError
	return errors.As(err, &we) && we.Code == code
}
