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
// the MaxJobs pool. Every deployment lives in one place, its registry
// entry: snapshot, serving state and watchers.
type Server struct {
	cfg  Config
	reg  *Registry
	jobs chan struct{}

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	ln     net.Listener
	closed bool
}

// connState is one live connection's write half: pushes and responses
// share the socket, so every frame write is serialized by its mutex.
type connState struct {
	conn    net.Conn
	version byte

	mu sync.Mutex
	// subs are the deployments the connection watches, for disconnect
	// cleanup. Only the connection's own goroutine touches it.
	subs map[*deployment]struct{}
}

// writeFrame writes one frame, serialized against concurrent pushes.
func (cs *connState) writeFrame(f Frame) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return WriteFrame(cs.conn, f)
}

// close closes the connection, then drops its subscriptions. The
// order matters: a push blocked writing to this connection holds its
// deployment's lock, and only the close fails that write.
func (cs *connState) close() {
	cs.conn.Close()
	for d := range cs.subs {
		d.mu.Lock()
		delete(d.watchers, cs)
		d.mu.Unlock()
	}
	cs.subs = nil
}

// NewServer builds a server with the given config.
func NewServer(cfg Config) *Server {
	if cfg.Name == "" {
		cfg.Name = "coold/" + cool.Version
	}
	return &Server{
		cfg:   cfg,
		reg:   newRegistry(cfg.Limits),
		jobs:  make(chan struct{}, parallel.Workers(cfg.MaxJobs)),
		conns: make(map[net.Conn]struct{}),
	}
}

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

// Close stops the server: the listener, every open connection and the
// attached store are closed. There is nothing to flush: every admission
// event was synced to the WAL before it was published. In-flight
// requests finish against closed writes, and a change they decide after
// the store closed gets storage.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
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
	if cerr := s.reg.closeStore(); cerr != nil && err == nil {
		err = cerr
	}
	return err
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
	cs := &connState{conn: conn, version: Version1}
	defer cs.close()
	if !s.track(conn) {
		return
	}
	defer s.untrack(conn)
	r := bufio.NewReader(conn)

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

// handleList enumerates the tenant's snapshots with their objectives.
func (s *Server) handleList(tenant string) (*Response, *WireError) {
	return &Response{Op: OpList, List: &ListResponse{Snapshots: s.reg.List(tenant)}}, nil
}

func (s *Server) handleSubmit(tenant string, sub *SubmitRequest) (*Response, *WireError) {
	d, resubmitted, werr := s.reg.admit(tenant, sub)
	if werr != nil {
		s.logf("submit tenant=%s rejected: %s: %s", tenant, werr.Code, werr.Message)
		return nil, werr
	}
	rec := &d.rec
	s.logf("submit tenant=%s fp=%.12s name=%q sensors=%d targets=%d seq=%d resubmitted=%v",
		tenant, rec.Fingerprint, rec.Name, len(rec.Spec.Sensors), len(rec.Spec.Targets), rec.Seq, resubmitted)
	return &Response{Op: OpSubmit, Submit: &SubmitResponse{
		Fingerprint: rec.Fingerprint,
		Seq:         rec.Seq,
		Resubmitted: resubmitted,
		Sensors:     len(rec.Spec.Sensors),
		Targets:     len(rec.Spec.Targets),
	}}, nil
}

// deployment resolves the tenant's registry entry for a fingerprint.
func (s *Server) deployment(tenant, fingerprint string) (*deployment, *WireError) {
	d, ok := s.reg.get(tenant, fingerprint)
	if !ok {
		return nil, &WireError{Code: CodeNotFound,
			Message: fmt.Sprintf("no snapshot %q for tenant", fingerprint)}
	}
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
	if err := d.ensurePlanner(); err != nil {
		return err
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
	if lifetime && d.rec.Spec.Utility == UtilityDetection {
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
	s.pushEvent(d, &WatchEvent{
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
	if err := d.ensurePlanner(); err != nil {
		return nil, err
	}
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
	if len(d.watchers) > 0 {
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
		s.pushEvent(d, &WatchEvent{
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
		d.mu.Lock()
		defer d.mu.Unlock()
		// The planner's period, derived as BuildPlanner derives it.
		period, err := cool.PeriodFromRho(d.rec.Spec.Rho)
		if err != nil {
			return nil, &WireError{Code: CodeInternal, Message: err.Error()}
		}
		st := &StatusInfo{
			Fingerprint: d.rec.Fingerprint,
			Name:        d.rec.Name,
			Parent:      d.rec.Parent,
			Seq:         d.rec.Seq,
			Mode:        "",
			Slots:       period.Slots(),
			Rho:         period.Rho(),
			Present:     len(d.rec.Spec.Sensors),
			Suspended:   d.suspended,
			Live:        d.inc != nil,
			Objective:   d.objective,
			Watchers:    len(d.watchers),
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
		eff, err := s.reg.SetLimits(l)
		if err != nil {
			s.logf("control tenant=%s limits storage failure: %v", tenant, err)
			return nil, &WireError{Code: CodeStorage, Message: err.Error()}
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
	d.mu.Lock()
	defer d.mu.Unlock()
	resp := &WatchResponse{Events: d.events}
	switch w.Op {
	case WatchSubscribe:
		if d.watchers == nil {
			d.watchers = make(map[*connState]struct{})
		}
		d.watchers[cs] = struct{}{}
		if cs.subs == nil {
			cs.subs = make(map[*deployment]struct{})
		}
		cs.subs[d] = struct{}{}
		resp.Subscribed = true
	case WatchUnsubscribe:
		delete(d.watchers, cs)
		delete(cs.subs, d)
	default:
		return nil, &WireError{Code: CodeBadRequest, Message: fmt.Sprintf("unknown watch op %q", w.Op)}
	}
	resp.Watchers = len(d.watchers)
	s.logf("watch tenant=%s fp=%.12s op=%s watchers=%d", tenant, w.Fingerprint, w.Op, resp.Watchers)
	return &Response{Op: OpWatch, Watch: resp}, nil
}

// pushEvent numbers one successful plan/replan event and pushes it to
// the deployment's watchers. Callers hold d.mu, which is what makes
// per-deployment push order (and the Seq numbering) total; a failed
// write removes the watcher and closes its connection.
func (s *Server) pushEvent(d *deployment, ev *WatchEvent) {
	d.events++
	ev.Seq = d.events
	if len(d.watchers) == 0 {
		return
	}
	f, err := encodeFrame(Version1, FramePush, ev)
	if err != nil {
		s.logf("watch fp=%.12s push encode: %v", d.rec.Fingerprint, err)
		return
	}
	for cs := range d.watchers {
		f.Version = cs.version
		if err := cs.writeFrame(f); err != nil {
			// A dead or stalled watcher must not wedge the deployment.
			delete(d.watchers, cs)
			cs.conn.Close()
		}
	}
}
