package controlplane

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"cool"
	"cool/internal/parallel"
)

// Config tunes a Server.
type Config struct {
	// Limits are the initial admission limits (reconfigurable at
	// runtime via ControlLimits).
	Limits Limits
	// MaxJobs bounds concurrently running planning/replanning jobs
	// across all connections and tenants (<= 0 selects NumCPU, the
	// internal/parallel convention). Excess jobs queue.
	MaxJobs int
	// Name identifies the daemon build in HelloAck ("coold/1.0").
	Name string
	// Logf, when non-nil, receives one line per admission and serving
	// event.
	Logf func(format string, args ...any)
}

// Server is the planner-as-a-service daemon core: the control plane
// (registry → normalizer → admission) plus the serving data plane
// (plan/replan/query over the wire protocol). One Server hosts many
// tenants; each tenant's deployments are isolated — its own snapshots,
// its own live sessions — and every session mutation is serialized per
// deployment while distinct deployments plan concurrently, bounded by
// the MaxJobs pool.
type Server struct {
	cfg  Config
	reg  *Registry
	adm  *Admission
	jobs chan struct{}

	mu     sync.Mutex
	deps   map[depKey]*deployment
	conns  map[net.Conn]struct{}
	ln     net.Listener
	closed bool
	store  *Store

	// watchMu guards the watch subscriptions. Lock order: d.mu may be
	// held when taking watchMu (subscribe and push both do), never the
	// reverse.
	watchMu  sync.Mutex
	watchers map[depKey]map[*connState]struct{}
}

type depKey struct{ tenant, fingerprint string }

// deployment is one tenant's live serving state for a snapshot: the
// planner built at admission and, once plan/replan traffic arrives,
// the incremental session. Its mutex serializes session mutation.
type deployment struct {
	mu        sync.Mutex
	snap      *Snapshot
	planner   *cool.Planner
	inc       *cool.Incremental
	suspended bool
	// objective is the last-planned objective ("" until the first
	// plan/session establishes one); surfaced by query/list.
	objective string
	// events counts successful plan/replan events; pushed WatchEvents
	// carry it as their per-deployment Seq.
	events uint64
}

// connState is one live connection's write half: pushes and responses
// share the socket, so every frame write is serialized by its mutex.
type connState struct {
	conn    net.Conn
	version byte

	mu sync.Mutex
	// subs tracks the connection's subscriptions for disconnect
	// cleanup; guarded by Server.watchMu, not cs.mu.
	subs map[depKey]struct{}
}

// writeFrame writes one frame, serialized against concurrent pushes.
func (cs *connState) writeFrame(f Frame) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return WriteFrame(cs.conn, f)
}

// NewServer builds a server with the given config.
func NewServer(cfg Config) *Server {
	reg := NewRegistry()
	if cfg.Name == "" {
		cfg.Name = "coold/" + cool.Version
	}
	return &Server{
		cfg:      cfg,
		reg:      reg,
		adm:      NewAdmission(reg, cfg.Limits),
		jobs:     make(chan struct{}, parallel.Workers(cfg.MaxJobs)),
		deps:     make(map[depKey]*deployment),
		conns:    make(map[net.Conn]struct{}),
		watchers: make(map[depKey]map[*connState]struct{}),
	}
}

// Registry exposes the snapshot registry (read-only use).
func (s *Server) Registry() *Registry { return s.reg }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections until the listener fails or Close is
// called (which returns nil).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("controlplane: server closed")
	}
	s.ln = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		go s.ServeConn(conn)
	}
}

// Close stops the server: the listener and every open connection are
// closed, and when a store is attached, the full state is compacted
// into a final checkpoint (the clean-shutdown flush) before the store
// is closed. In-flight requests finish against closed writes.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	st := s.store
	s.store = nil
	open := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		open = append(open, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range open {
		c.Close()
	}
	if st != nil {
		if cerr := s.checkpointNow(st); cerr != nil {
			// The WAL still holds everything the checkpoint would have
			// compacted; replay recovers it.
			s.logf("close: final checkpoint: %v", cerr)
			if err == nil {
				err = cerr
			}
		}
		if cerr := st.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// getStore returns the attached store (nil when serving in-memory).
func (s *Server) getStore() *Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// ServeConn serves one connection: the Hello handshake, then a
// request/response loop. It is exported so in-process harnesses can
// serve a net.Pipe end directly. The connection is closed on return.
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	if !s.track(conn) {
		return
	}
	defer s.untrack(conn)
	r := bufio.NewReader(conn)
	cs := &connState{conn: conn, version: Version1}
	defer s.dropWatcher(cs)

	writeErr := func(version byte, code ErrorCode, msg string) {
		f, err := encodeFrame(version, FrameError, &WireError{Code: code, Message: msg})
		if err == nil {
			cs.writeFrame(f) // best effort; the peer may be gone
		}
	}

	// Handshake.
	first, err := ReadFrame(r)
	if err != nil {
		if !errors.Is(err, io.EOF) {
			writeErr(Version1, frameErrCode(err), err.Error())
		}
		return
	}
	if first.Type != FrameHello {
		writeErr(Version1, CodeBadFrame, fmt.Sprintf("expected hello, got frame type %d", first.Type))
		return
	}
	hello, err := DecodeHello(first.Payload)
	if err != nil {
		writeErr(Version1, CodeBadFrame, err.Error())
		return
	}
	version, err := NegotiateVersion(hello.MaxVersion)
	if err != nil {
		writeErr(Version1, CodeBadVersion, err.Error())
		return
	}
	cs.version = version
	ack, err := encodeFrame(version, FrameHelloAck, &HelloAck{Version: version, Server: s.cfg.Name})
	if err != nil || cs.writeFrame(ack) != nil {
		return
	}

	// Request loop.
	for {
		f, err := ReadFrame(r)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				writeErr(version, frameErrCode(err), err.Error())
			}
			return
		}
		if f.Type != FrameRequest {
			writeErr(version, CodeBadFrame, fmt.Sprintf("expected request, got frame type %d", f.Type))
			return
		}
		req, err := DecodeRequest(f.Payload)
		if err != nil {
			// The framing is intact — answer and keep the connection.
			writeErr(version, CodeBadRequest, err.Error())
			continue
		}
		resp, werr := s.handle(req, cs)
		var out Frame
		if werr != nil {
			out, err = encodeFrame(version, FrameError, werr)
		} else {
			out, err = encodeFrame(version, FrameResponse, resp)
		}
		if err != nil {
			writeErr(version, CodeInternal, err.Error())
			continue
		}
		if err := cs.writeFrame(out); err != nil {
			return
		}
	}
}

// frameErrCode maps a wire decoding error to its typed code.
func frameErrCode(err error) ErrorCode {
	if errors.Is(err, ErrBadVersion) {
		return CodeBadVersion
	}
	return CodeBadFrame
}

// handle dispatches one request. All engine work happens here, bounded
// by the jobs pool; the connection loop stays free of planning cost.
// The connState is the requester's write half — only OpWatch binds to
// it (subscriptions are per connection).
func (s *Server) handle(req *Request, cs *connState) (*Response, *WireError) {
	switch req.Op {
	case OpSubmit:
		return s.handleSubmit(req.Tenant, req.Submit)
	case OpPlan:
		return s.handlePlan(req.Tenant, req.Plan)
	case OpReplan:
		return s.handleReplan(req.Tenant, req.Replan)
	case OpQuery:
		return s.handleQuery(req.Tenant, req.Query)
	case OpList:
		return s.handleList(req.Tenant)
	case OpControl:
		return s.handleControl(req.Tenant, req.Control)
	case OpWatch:
		return s.handleWatch(req.Tenant, req.Watch, cs)
	}
	return nil, &WireError{Code: CodeBadRequest, Message: fmt.Sprintf("unknown op %q", req.Op)}
}

// handleList enumerates the tenant's snapshots and decorates each with
// its deployment's last-planned objective (empty until a plan
// establishes one, keeping pre-objective encodings byte-identical).
func (s *Server) handleList(tenant string) (*Response, *WireError) {
	snaps := s.reg.List(tenant)
	// Collect the live handles under s.mu, then read each objective
	// under its own d.mu (lock order: s.mu and d.mu never nest here).
	deps := make([]*deployment, len(snaps))
	s.mu.Lock()
	for i := range snaps {
		deps[i] = s.deps[depKey{tenant, snaps[i].Fingerprint}]
	}
	s.mu.Unlock()
	for i, d := range deps {
		if d == nil {
			continue
		}
		d.mu.Lock()
		snaps[i].Objective = d.objective
		d.mu.Unlock()
	}
	return &Response{Op: OpList, List: &ListResponse{Snapshots: snaps}}, nil
}

func (s *Server) handleSubmit(tenant string, sub *SubmitRequest) (*Response, *WireError) {
	snap, planner, resubmitted, werr := s.adm.Admit(tenant, sub)
	if werr != nil {
		s.logf("submit tenant=%s rejected: %s: %s", tenant, werr.Code, werr.Message)
		return nil, werr
	}
	if !resubmitted {
		if st := s.getStore(); st != nil {
			// Durability before acknowledgment: the admission is answered
			// only after the event is logged and synced. On a storage
			// failure the registration is rolled back, so memory never
			// claims what the WAL does not hold and a restart cannot
			// diverge from what clients were told.
			err := st.AppendSubmit(SubmitRecord{
				Tenant:      tenant,
				Name:        snap.Name,
				Parent:      snap.Parent,
				Fingerprint: snap.Fingerprint,
				Seq:         snap.Seq,
				Spec:        snap.Spec,
			})
			if err != nil {
				s.reg.unregister(tenant, snap.Fingerprint)
				s.logf("submit tenant=%s fp=%.12s storage failure: %v", tenant, snap.Fingerprint, err)
				return nil, &WireError{Code: CodeStorage, Message: err.Error()}
			}
			if st.ShouldCheckpoint() {
				if err := s.checkpointNow(st); err != nil {
					// Non-fatal: the WAL still holds every event the
					// checkpoint would have compacted.
					s.logf("checkpoint: %v", err)
				}
			}
		}
	}
	if planner != nil {
		// Install the serving handle unless a concurrent identical
		// submit already did.
		key := depKey{tenant, snap.Fingerprint}
		s.mu.Lock()
		if _, ok := s.deps[key]; !ok {
			s.deps[key] = &deployment{snap: snap, planner: planner}
		}
		s.mu.Unlock()
	}
	s.logf("submit tenant=%s fp=%.12s name=%q sensors=%d targets=%d seq=%d resubmitted=%v",
		tenant, snap.Fingerprint, snap.Name, len(snap.Spec.Sensors), len(snap.Spec.Targets), snap.Seq, resubmitted)
	return &Response{Op: OpSubmit, Submit: &SubmitResponse{
		Fingerprint: snap.Fingerprint,
		Seq:         snap.Seq,
		Resubmitted: resubmitted,
		Sensors:     len(snap.Spec.Sensors),
		Targets:     len(snap.Spec.Targets),
	}}, nil
}

// deployment resolves the serving handle for an admitted snapshot,
// building the planner lazily when the handle is missing (e.g. the
// registering connection lost the install race). Deterministic: the
// lazily built planner is the same construction admission performed.
func (s *Server) deployment(tenant, fingerprint string) (*deployment, *WireError) {
	snap, ok := s.reg.Get(tenant, fingerprint)
	if !ok {
		return nil, &WireError{Code: CodeNotFound,
			Message: fmt.Sprintf("no snapshot %q for tenant", fingerprint)}
	}
	key := depKey{tenant, fingerprint}
	s.mu.Lock()
	d, ok := s.deps[key]
	s.mu.Unlock()
	if ok {
		return d, nil
	}
	planner, err := BuildPlanner(snap.Spec)
	if err != nil {
		return nil, &WireError{Code: CodeInternal, Message: err.Error()}
	}
	s.mu.Lock()
	if existing, ok := s.deps[key]; ok {
		d = existing
	} else {
		d = &deployment{snap: snap, planner: planner}
		s.deps[key] = d
	}
	s.mu.Unlock()
	return d, nil
}

// acquireJob takes one slot of the bounded planning pool.
func (s *Server) acquireJob() func() {
	s.jobs <- struct{}{}
	return func() { <-s.jobs }
}

// ensureInc establishes the live incremental session (the initial plan
// is bit-identical to EngineGreedy). Callers hold d.mu.
func (d *deployment) ensureInc() error {
	if d.inc != nil {
		return nil
	}
	inc, err := d.planner.Incremental()
	if err != nil {
		return err
	}
	d.inc = inc
	return nil
}

// oneShotEngines maps every one-shot engine to the facade request it
// plans through Planner.Plan. EngineIncremental is the only engine
// outside the table: it keeps a live Repairer session for replans.
var oneShotEngines = map[string]cool.PlanRequest{
	EngineGreedy:        {Objective: cool.ObjectiveUtility, Algorithm: cool.AlgorithmGreedy},
	EngineLazy:          {Objective: cool.ObjectiveUtility, Algorithm: cool.AlgorithmLazyGreedy},
	EngineParallel:      {Objective: cool.ObjectiveUtility, Algorithm: cool.AlgorithmParallelLazyGreedy},
	EngineHEF:           {Objective: cool.ObjectiveLifetime, Algorithm: cool.AlgorithmHEF},
	EngineStripCover:    {Objective: cool.ObjectiveLifetime, Algorithm: cool.AlgorithmStripCover},
	EngineLifetimeExact: {Objective: cool.ObjectiveLifetime, Algorithm: cool.AlgorithmLifetimeExact},
}

// handlePlan serves both objectives through one engine seam. The empty
// engine means EngineIncremental under the utility objective and
// EngineHEF under the lifetime objective; the lifetime planners take
// their default recharge rate (1/ρ per rest slot) and horizon from the
// deployment's charging ratio.
func (s *Server) handlePlan(tenant string, plan *PlanRequest) (*Response, *WireError) {
	d, werr := s.deployment(tenant, plan.Fingerprint)
	if werr != nil {
		return nil, werr
	}
	release := s.acquireJob()
	defer release()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.suspended {
		return nil, &WireError{Code: CodeSuspended, Message: "deployment suspended"}
	}
	obj, oerr := cool.ParseObjective(plan.Objective)
	if oerr != nil {
		return nil, &WireError{Code: CodeBadRequest, Message: oerr.Error()}
	}
	lifetime := obj == cool.ObjectiveLifetime
	if lifetime && d.snap.Spec.Utility == UtilityDetection {
		return nil, &WireError{Code: CodeBadRequest,
			Message: "lifetime objective requires a coverage utility (detection deployments have no binary coverage)"}
	}
	engine := plan.Engine
	switch {
	case engine == "" && lifetime:
		engine = EngineHEF
	case engine == "":
		engine = EngineIncremental
	}
	var (
		resp *PlanResponse
		err  error
	)
	req, oneShot := oneShotEngines[engine]
	switch {
	case engine == EngineIncremental && !lifetime:
		resp, err = d.planIncremental()
	case !oneShot || req.Objective != obj:
		msg := fmt.Sprintf("unknown engine %q", engine)
		if lifetime {
			msg = fmt.Sprintf("engine %q does not plan the lifetime objective", engine)
		}
		return nil, &WireError{Code: CodeBadRequest, Message: msg}
	default:
		req.Workers = plan.Workers
		resp, err = d.planOneShot(engine, req)
	}
	if err != nil {
		return nil, &WireError{Code: CodeInternal, Message: err.Error()}
	}
	if lifetime {
		d.objective = ObjectiveLifetime
		s.logf("plan tenant=%s fp=%.12s engine=%s objective=lifetime lifetime=%d",
			tenant, plan.Fingerprint, engine, resp.Lifetime.Lifetime)
	} else {
		d.objective = ObjectiveUtility
		s.logf("plan tenant=%s fp=%.12s engine=%s utility=%g", tenant, plan.Fingerprint, engine, resp.Utility)
	}
	s.pushEvent(depKey{tenant, plan.Fingerprint}, d, &WatchEvent{
		Fingerprint: plan.Fingerprint, Kind: WatchEventPlan, Plan: resp,
	})
	return &Response{Op: OpPlan, Plan: resp}, nil
}

// planIncremental answers EngineIncremental from the live session,
// establishing it on first use. Callers hold d.mu.
func (d *deployment) planIncremental() (*PlanResponse, error) {
	if err := d.ensureInc(); err != nil {
		return nil, err
	}
	sched, err := d.inc.Schedule()
	if err != nil {
		return nil, err
	}
	return utilityResponse(EngineIncremental, sched, d.inc.Utility()), nil
}

// planOneShot runs a one-shot engine through Planner.Plan. Callers
// hold d.mu.
func (d *deployment) planOneShot(engine string, req cool.PlanRequest) (*PlanResponse, error) {
	res, err := d.planner.Plan(req)
	if err != nil {
		return nil, err
	}
	lr := res.Lifetime
	if lr == nil {
		return utilityResponse(engine, res.Schedule, d.planner.PeriodUtility(res.Schedule)), nil
	}
	slots := make([][]int, lr.Schedule.Slots())
	for t := range slots {
		slots[t] = append([]int{}, lr.Schedule.ActiveAt(t)...)
	}
	return &PlanResponse{
		Engine:    engine,
		Objective: ObjectiveLifetime,
		Lifetime: &LifetimePlanInfo{
			Lifetime:    lr.Lifetime,
			Horizon:     lr.Horizon,
			Groups:      lr.Groups,
			ActiveSlots: slots,
		},
	}, nil
}

func utilityResponse(engine string, sched *cool.Schedule, utility float64) *PlanResponse {
	return &PlanResponse{
		Engine:   engine,
		Schedule: sched,
		Utility:  utility,
		Mode:     sched.Mode().String(),
		Slots:    sched.Period(),
	}
}

func (s *Server) handleReplan(tenant string, rep *ReplanRequest) (*Response, *WireError) {
	d, werr := s.deployment(tenant, rep.Fingerprint)
	if werr != nil {
		return nil, werr
	}
	release := s.acquireJob()
	defer release()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.suspended {
		return nil, &WireError{Code: CodeSuspended, Message: "deployment suspended"}
	}
	if err := d.ensureInc(); err != nil {
		return nil, &WireError{Code: CodeInternal, Message: err.Error()}
	}
	d.objective = ObjectiveUtility
	var (
		st  cool.RepairStats
		err error
	)
	switch rep.Op {
	case ReplanKill:
		st, err = d.inc.KillSensors(rep.IDs)
	case ReplanDeploy:
		st, err = d.inc.DeploySensors(rep.IDs)
	case ReplanDrift:
		st, err = d.inc.UpdateRho(rep.Rho)
	default:
		return nil, &WireError{Code: CodeBadRequest, Message: fmt.Sprintf("unknown replan op %q", rep.Op)}
	}
	if err != nil {
		return nil, &WireError{Code: CodeBadRequest, Message: err.Error()}
	}
	resp := &ReplanResponse{
		Changed:       st.Changed,
		Dirty:         st.Dirty,
		Rounds:        st.Rounds,
		Moves:         st.Moves,
		Full:          st.Full,
		UtilityBefore: st.UtilityBefore,
		Utility:       st.Utility,
	}
	if rep.WithGap {
		gap, err := d.inc.Gap()
		if err != nil {
			return nil, &WireError{Code: CodeInternal, Message: err.Error()}
		}
		resp.Gap = &gap
	}
	if rep.WithSchedule {
		sched, err := d.inc.Schedule()
		if err != nil {
			return nil, &WireError{Code: CodeInternal, Message: err.Error()}
		}
		resp.Schedule = sched
	}
	s.logf("replan tenant=%s fp=%.12s op=%s changed=%d dirty=%d moves=%d utility=%g",
		tenant, rep.Fingerprint, rep.Op, st.Changed, st.Dirty, st.Moves, st.Utility)
	key := depKey{tenant, rep.Fingerprint}
	if s.watcherCount(key) > 0 {
		// The push mirrors the actor's response, except it always
		// carries the repaired schedule — a watcher cannot ask later.
		push := *resp
		if push.Schedule == nil {
			sched, err := d.inc.Schedule()
			if err != nil {
				s.logf("watch tenant=%s fp=%.12s push schedule: %v", tenant, rep.Fingerprint, err)
				return &Response{Op: OpReplan, Replan: resp}, nil
			}
			push.Schedule = sched
		}
		s.pushEvent(key, d, &WatchEvent{
			Fingerprint: rep.Fingerprint, Kind: WatchEventReplan, Replan: &push,
		})
	} else {
		d.events++ // the event is numbered even when unobserved
	}
	return &Response{Op: OpReplan, Replan: resp}, nil
}

func (s *Server) handleQuery(tenant string, q *QueryRequest) (*Response, *WireError) {
	d, werr := s.deployment(tenant, q.Fingerprint)
	if werr != nil {
		return nil, werr
	}
	if q.What == QueryStatus {
		// Status works even while suspended — it is how an operator
		// sees the suspension.
		watchers := s.watcherCount(depKey{tenant, q.Fingerprint})
		d.mu.Lock()
		defer d.mu.Unlock()
		period := d.planner.Period()
		st := &StatusInfo{
			Fingerprint: d.snap.Fingerprint,
			Name:        d.snap.Name,
			Parent:      d.snap.Parent,
			Seq:         d.snap.Seq,
			Mode:        "",
			Slots:       period.Slots(),
			Rho:         period.Rho(),
			Present:     len(d.snap.Spec.Sensors),
			Suspended:   d.suspended,
			Live:        d.inc != nil,
			Objective:   d.objective,
			Watchers:    watchers,
		}
		if d.inc != nil {
			st.Mode = d.inc.Mode().String()
			st.Slots = d.inc.Period().Slots()
			st.Rho = d.inc.Period().Rho()
			st.Present = d.inc.NumPresent()
		}
		return &Response{Op: OpQuery, Query: &QueryResponse{Status: st}}, nil
	}
	release := s.acquireJob()
	defer release()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.suspended {
		return nil, &WireError{Code: CodeSuspended, Message: "deployment suspended"}
	}
	if err := d.ensureInc(); err != nil {
		return nil, &WireError{Code: CodeInternal, Message: err.Error()}
	}
	d.objective = ObjectiveUtility
	out := &QueryResponse{}
	switch q.What {
	case QuerySchedule:
		sched, err := d.inc.Schedule()
		if err != nil {
			return nil, &WireError{Code: CodeInternal, Message: err.Error()}
		}
		out.Schedule = sched
	case QueryUtility:
		u := d.inc.Utility()
		out.Utility = &u
	case QueryGap:
		gap, err := d.inc.Gap()
		if err != nil {
			return nil, &WireError{Code: CodeInternal, Message: err.Error()}
		}
		out.Gap = &gap
	default:
		return nil, &WireError{Code: CodeBadRequest, Message: fmt.Sprintf("unknown query %q", q.What)}
	}
	return &Response{Op: OpQuery, Query: out}, nil
}

func (s *Server) handleControl(tenant string, ctl *ControlRequest) (*Response, *WireError) {
	switch ctl.Op {
	case ControlLimits:
		var l Limits
		if ctl.Limits != nil {
			l = *ctl.Limits
		}
		old := s.adm.Limits()
		eff := s.adm.SetLimits(l)
		if st := s.getStore(); st != nil {
			// The record holds the effective (fully non-zero) limits, so
			// replaying it restores them exactly; on storage failure the
			// change is undone the same way.
			if err := st.AppendLimits(eff); err != nil {
				s.adm.SetLimits(old)
				s.logf("control tenant=%s limits storage failure: %v", tenant, err)
				return nil, &WireError{Code: CodeStorage, Message: err.Error()}
			}
		}
		s.logf("control tenant=%s limits=%+v", tenant, eff)
		return &Response{Op: OpControl, Control: &ControlResponse{Limits: &eff}}, nil
	case ControlSuspend, ControlResume, ControlReset:
		d, werr := s.deployment(tenant, ctl.Fingerprint)
		if werr != nil {
			return nil, werr
		}
		d.mu.Lock()
		defer d.mu.Unlock()
		switch ctl.Op {
		case ControlSuspend:
			d.suspended = true
		case ControlResume:
			d.suspended = false
		case ControlReset:
			d.inc = nil
		}
		s.logf("control tenant=%s fp=%.12s op=%s", tenant, ctl.Fingerprint, ctl.Op)
		return &Response{Op: OpControl, Control: &ControlResponse{Suspended: d.suspended}}, nil
	}
	return nil, &WireError{Code: CodeBadRequest, Message: fmt.Sprintf("unknown control op %q", ctl.Op)}
}

// handleWatch subscribes (or unsubscribes) the requesting connection
// to a deployment's push stream. Subscription state changes under d.mu
// so they serialize against pushes: the Events counter in the response
// and the Seq of the first push the subscriber sees are gap-free by
// construction.
func (s *Server) handleWatch(tenant string, w *WatchRequest, cs *connState) (*Response, *WireError) {
	d, werr := s.deployment(tenant, w.Fingerprint)
	if werr != nil {
		return nil, werr
	}
	key := depKey{tenant, w.Fingerprint}
	d.mu.Lock()
	defer d.mu.Unlock()
	resp := &WatchResponse{Events: d.events}
	s.watchMu.Lock()
	set := s.watchers[key]
	switch w.Op {
	case WatchSubscribe:
		if set == nil {
			set = make(map[*connState]struct{})
			s.watchers[key] = set
		}
		set[cs] = struct{}{}
		if cs.subs == nil {
			cs.subs = make(map[depKey]struct{})
		}
		cs.subs[key] = struct{}{}
		resp.Subscribed = true
	case WatchUnsubscribe:
		delete(set, cs)
		delete(cs.subs, key)
	default:
		s.watchMu.Unlock()
		return nil, &WireError{Code: CodeBadRequest, Message: fmt.Sprintf("unknown watch op %q", w.Op)}
	}
	resp.Watchers = len(set)
	s.watchMu.Unlock()
	s.logf("watch tenant=%s fp=%.12s op=%s watchers=%d", tenant, w.Fingerprint, w.Op, resp.Watchers)
	return &Response{Op: OpWatch, Watch: resp}, nil
}

// watcherCount returns the deployment's subscriber count.
func (s *Server) watcherCount(key depKey) int {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	return len(s.watchers[key])
}

// dropWatcher removes a disconnecting connection from every
// subscription it holds.
func (s *Server) dropWatcher(cs *connState) {
	s.watchMu.Lock()
	for key := range cs.subs {
		delete(s.watchers[key], cs)
		if len(s.watchers[key]) == 0 {
			delete(s.watchers, key)
		}
	}
	cs.subs = nil
	s.watchMu.Unlock()
}

// pushEvent numbers one successful plan/replan event and pushes it to
// the deployment's subscribers. Callers hold d.mu, which is what makes
// per-deployment push order (and the Seq numbering) total; a write
// failure drops the watcher and closes its connection.
func (s *Server) pushEvent(key depKey, d *deployment, ev *WatchEvent) {
	d.events++
	ev.Seq = d.events
	s.watchMu.Lock()
	set := s.watchers[key]
	targets := make([]*connState, 0, len(set))
	for cs := range set {
		targets = append(targets, cs)
	}
	s.watchMu.Unlock()
	if len(targets) == 0 {
		return
	}
	f, err := encodeFrame(Version1, FramePush, ev)
	if err != nil {
		s.logf("watch fp=%.12s push encode: %v", key.fingerprint, err)
		return
	}
	for _, cs := range targets {
		f.Version = cs.version
		if err := cs.writeFrame(f); err != nil {
			// A dead or stalled watcher must not wedge the deployment.
			s.dropWatcher(cs)
			cs.conn.Close()
		}
	}
}
