package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cool"
	"cool/internal/controlplane"
)

// span is one timed call into a layer's public function, recorded in
// memory during the in-process replay and summarised at the end.
type span struct {
	name       string
	req        int // request id: index in the replayed stream
	parent     int // index of the parent span, -1 for a request root
	start, end time.Duration
	count      int64 // work counted at the same boundary (bytes, edges, …)
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, req, parent int) int {
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int, count int64) {
	t.spans[i].end = time.Since(t.t0)
	t.spans[i].count = count
}

// selfTimes returns each span's duration minus the part its children
// cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// replayDep is the replay's serving state for one deployment.
type replayDep struct {
	snap    controlplane.SubmitRecord
	planner *cool.Planner
	inc     *cool.Incremental
	watched bool
	planned bool
	events  uint64
}

// stageReplay replays the acknowledged request stream in-process,
// calling each layer's public functions in the order Server.handle*
// composes them, one span per call:
//
//	DecodeRequest → Normalize → Fingerprint → cool.NewNetwork →
//	NewTargetCountUtility/NewDetectionUtility → NewPlanner →
//	Store.AppendSubmit → Store.WriteCheckpoint (when ShouldCheckpoint) →
//	Planner.Incremental → KillSensors/DeploySensors →
//	Incremental.Schedule → json.Marshal → AppendFrame
//
// Every re-encoded answer whose content does not depend on how two
// connections interleaved is compared byte for byte with what coold
// sent, so the breakdown describes what coold actually did.
type stageReplay struct {
	r        *run
	tr       tracer
	store    *controlplane.Store
	deps     map[string]*replayDep
	order    []string // fingerprints in admission order
	seq      uint64
	checked  int
	mismatch int
	repairs  []cool.RepairStats
	resubmit int
	submits  int
}

// replayOps is the acknowledged stream: the kept set-up's requests,
// then the timed requests in the order coold answered them.
func (r *run) replayOps() []*op {
	return append(append([]*op(nil), r.setupOps...), r.allOps()...)
}

func (r *run) runStageReplay(dir string) (*stageReplay, error) {
	st, _, err := controlplane.OpenStore(dir, controlplane.StoreOptions{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	sr := &stageReplay{r: r, store: st, deps: make(map[string]*replayDep), tr: tracer{t0: time.Now()}}
	for i, o := range r.replayOps() {
		if !o.ok() {
			continue
		}
		if err := sr.request(i, o); err != nil {
			return nil, fmt.Errorf("replaying %s %d: %w", o.label, i, err)
		}
	}
	return sr, nil
}

// deterministic reports whether an op's answer is independent of how
// the connections interleaved: everything except a read of a
// deployment that another connection mutates.
func (r *run) deterministic(o *op) bool {
	if r.workload != wPoll || o.dep < 0 {
		return true
	}
	return o.conn == o.dep || o.label == "replan"
}

func (sr *stageReplay) request(id int, o *op) error {
	tr := &sr.tr
	root := tr.begin("request", id, -1)
	s := tr.begin("wire.decode_request", id, root)
	req, err := controlplane.DecodeRequest(o.frame[frameHeader:])
	tr.end(s, int64(len(o.frame)-frameHeader))
	if err != nil {
		return err
	}
	var resp *controlplane.Response
	switch req.Op {
	case controlplane.OpSubmit:
		resp, err = sr.submit(id, root, req)
	case controlplane.OpPlan:
		resp, err = sr.plan(id, root, req)
	case controlplane.OpReplan:
		resp, err = sr.replan(id, root, req)
	case controlplane.OpQuery:
		resp, err = sr.query(id, root, req)
	case controlplane.OpList:
		resp = sr.list(req.Tenant)
	case controlplane.OpWatch:
		d := sr.deps[req.Watch.Fingerprint]
		d.watched = true
		resp = &controlplane.Response{Op: controlplane.OpWatch,
			Watch: &controlplane.WatchResponse{Subscribed: true, Watchers: 1, Events: d.events}}
	default:
		err = fmt.Errorf("op %q not replayed", req.Op)
	}
	if err != nil {
		return err
	}
	s = tr.begin("wire.encode_response", id, root)
	payload, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	frame := controlplane.AppendFrame(nil, controlplane.Frame{Version: controlplane.Version1,
		Type: controlplane.FrameResponse, Payload: payload})
	tr.end(s, int64(len(frame)-frameHeader))
	tr.end(root, 0)
	if o.resp != nil && sr.r.deterministic(o) {
		sr.checked++
		if !bytes.Equal(payload, o.resp) {
			sr.mismatch++
			if sr.mismatch <= 5 {
				sr.r.rep.logf("replay mismatch: %s answer %d differs from coold's: %.200s != %.200s",
					o.label, id, payload, o.resp)
			}
		}
	}
	return nil
}

func (sr *stageReplay) submit(id, root int, req *controlplane.Request) (*controlplane.Response, error) {
	tr := &sr.tr
	sr.submits++
	s := tr.begin("admission.normalize", id, root)
	spec, err := controlplane.Normalize(req.Submit.Spec)
	tr.end(s, int64(len(spec.Sensors)))
	if err != nil {
		return nil, err
	}
	s = tr.begin("admission.fingerprint", id, root)
	fp, err := controlplane.Fingerprint(spec)
	tr.end(s, 0)
	if err != nil {
		return nil, err
	}
	n := len(spec.Sensors)
	if d, ok := sr.deps[fp]; ok {
		sr.resubmit++
		return submitResponse(d, true), nil
	}
	s = tr.begin(sized("network.build", n), id, root)
	sensors := make([]cool.Sensor, n)
	for i, x := range spec.Sensors {
		sensors[i] = cool.Sensor{ID: i, Pos: cool.Point{X: x.X, Y: x.Y}, Range: x.Range}
	}
	targets := make([]cool.Target, len(spec.Targets))
	for j, t := range spec.Targets {
		targets[j] = cool.Target{ID: j, Pos: cool.Point{X: t.X, Y: t.Y}, Weight: t.Weight}
	}
	network, err := cool.NewNetwork(sensors, targets)
	if err != nil {
		return nil, err
	}
	tr.end(s, 0)
	for j := range targets {
		tr.spans[s].count += int64(len(network.Coverers(j)))
	}
	s = tr.begin(sized("oracle.build", n)+"."+spec.Utility, id, root)
	var util cool.Utility
	if spec.Utility == controlplane.UtilityDetection {
		util, err = cool.NewDetectionUtility(network, cool.FixedProb(spec.DetectProb))
	} else {
		util, err = cool.NewTargetCountUtility(network)
	}
	tr.end(s, 0)
	if err != nil {
		return nil, err
	}
	s = tr.begin("engine.new_planner", id, root)
	period, err := cool.PeriodFromRho(spec.Rho)
	if err != nil {
		return nil, err
	}
	planner, err := cool.NewPlanner(util, period)
	tr.end(s, 0)
	if err != nil {
		return nil, err
	}
	sr.seq++
	d := &replayDep{planner: planner, snap: controlplane.SubmitRecord{Tenant: req.Tenant, Name: req.Submit.Name,
		Parent: req.Submit.Parent, Fingerprint: fp, Seq: sr.seq, Spec: spec}}
	walSize := fileSize(filepath.Join(sr.store.Dir(), "wal.log"))
	s = tr.begin("wal.append", id, root)
	err = sr.store.AppendSubmit(d.snap)
	tr.end(s, 0)
	tr.spans[s].count = fileSize(filepath.Join(sr.store.Dir(), "wal.log")) - walSize
	if err != nil {
		return nil, err
	}
	sr.deps[fp] = d
	sr.order = append(sr.order, fp)
	if sr.store.ShouldCheckpoint() {
		cp := &controlplane.Checkpoint{Seq: sr.seq, Limits: controlplane.Limits{
			MaxSensors: controlplane.DefaultMaxSensors, MaxTargets: controlplane.DefaultMaxTargets,
			MaxDeployments: controlplane.DefaultMaxDeployments}}
		for _, f := range sr.order {
			cp.Snapshots = append(cp.Snapshots, sr.deps[f].snap)
		}
		s = tr.begin("wal.checkpoint", id, root)
		err := sr.store.WriteCheckpoint(cp)
		tr.end(s, 0)
		tr.spans[s].count = fileSize(filepath.Join(sr.store.Dir(), "checkpoint.json"))
		if err != nil {
			return nil, err
		}
	}
	return submitResponse(d, false), nil
}

func submitResponse(d *replayDep, resubmitted bool) *controlplane.Response {
	return &controlplane.Response{Op: controlplane.OpSubmit, Submit: &controlplane.SubmitResponse{
		Fingerprint: d.snap.Fingerprint, Seq: d.snap.Seq, Resubmitted: resubmitted,
		Sensors: len(d.snap.Spec.Sensors), Targets: len(d.snap.Spec.Targets)}}
}

func sized(name string, n int) string { return fmt.Sprintf("%s.n%d", name, n) }

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// session returns the deployment's live session, planning it first
// (the span Planner.Incremental) when none exists.
func (sr *stageReplay) session(id, root int, fp string) (*replayDep, error) {
	d, ok := sr.deps[fp]
	if !ok {
		return nil, fmt.Errorf("unknown deployment %.12s", fp)
	}
	if d.inc == nil {
		s := sr.tr.begin(sized("engine.plan", len(d.snap.Spec.Sensors)), id, root)
		inc, err := d.planner.Incremental()
		sr.tr.end(s, 0)
		if err != nil {
			return nil, err
		}
		d.inc = inc
	}
	d.planned = true
	return d, nil
}

func (sr *stageReplay) schedule(id, root int, d *replayDep) (*cool.Schedule, error) {
	s := sr.tr.begin("engine.schedule", id, root)
	sched, err := d.inc.Schedule()
	sr.tr.end(s, int64(sched.NumSensors()))
	return sched, err
}

func (sr *stageReplay) plan(id, root int, req *controlplane.Request) (*controlplane.Response, error) {
	d, err := sr.session(id, root, req.Plan.Fingerprint)
	if err != nil {
		return nil, err
	}
	sched, err := sr.schedule(id, root, d)
	if err != nil {
		return nil, err
	}
	pr := &controlplane.PlanResponse{Engine: controlplane.EngineIncremental, Schedule: sched,
		Utility: d.inc.Utility(), Mode: sched.Mode().String(), Slots: sched.Period()}
	if err := sr.push(id, root, d, &controlplane.WatchEvent{Fingerprint: req.Plan.Fingerprint,
		Kind: controlplane.WatchEventPlan, Plan: pr}); err != nil {
		return nil, err
	}
	return &controlplane.Response{Op: controlplane.OpPlan, Plan: pr}, nil
}

// push numbers an event and, when the deployment is watched, encodes
// the push frame coold writes to the watcher.
func (sr *stageReplay) push(id, root int, d *replayDep, ev *controlplane.WatchEvent) error {
	d.events++
	if !d.watched {
		return nil
	}
	ev.Seq = d.events
	s := sr.tr.begin("wire.encode_push", id, root)
	payload, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	frame := controlplane.AppendFrame(nil, controlplane.Frame{Version: controlplane.Version1,
		Type: controlplane.FramePush, Payload: payload})
	sr.tr.end(s, int64(len(frame)-frameHeader))
	return nil
}

func (sr *stageReplay) replan(id, root int, req *controlplane.Request) (*controlplane.Response, error) {
	rp := req.Replan
	d, err := sr.session(id, root, rp.Fingerprint)
	if err != nil {
		return nil, err
	}
	s := sr.tr.begin("engine.repair", id, root)
	var st cool.RepairStats
	if rp.Op == controlplane.ReplanKill {
		st, err = d.inc.KillSensors(rp.IDs)
	} else {
		st, err = d.inc.DeploySensors(rp.IDs)
	}
	sr.tr.end(s, int64(st.Dirty))
	if err != nil {
		return nil, err
	}
	sr.repairs = append(sr.repairs, st)
	resp := &controlplane.ReplanResponse{Changed: st.Changed, Dirty: st.Dirty, Rounds: st.Rounds,
		Moves: st.Moves, Full: st.Full, UtilityBefore: st.UtilityBefore, Utility: st.Utility}
	if d.watched {
		pushed := *resp
		sched, err := sr.schedule(id, root, d)
		if err != nil {
			return nil, err
		}
		pushed.Schedule = sched
		if err := sr.push(id, root, d, &controlplane.WatchEvent{Fingerprint: rp.Fingerprint,
			Kind: controlplane.WatchEventReplan, Replan: &pushed}); err != nil {
			return nil, err
		}
	} else {
		d.events++
	}
	return &controlplane.Response{Op: controlplane.OpReplan, Replan: resp}, nil
}

func (sr *stageReplay) query(id, root int, req *controlplane.Request) (*controlplane.Response, error) {
	q := req.Query
	d, ok := sr.deps[q.Fingerprint]
	if !ok {
		return nil, fmt.Errorf("unknown deployment %.12s", q.Fingerprint)
	}
	out := &controlplane.QueryResponse{}
	switch q.What {
	case controlplane.QueryStatus:
		watchers := 0
		if d.watched {
			watchers = 1
		}
		period := d.inc.Period()
		objective := ""
		if d.planned {
			objective = controlplane.ObjectiveUtility
		}
		out.Status = &controlplane.StatusInfo{Fingerprint: q.Fingerprint, Name: d.snap.Name, Parent: d.snap.Parent,
			Seq: d.snap.Seq, Mode: d.inc.Mode().String(), Slots: period.Slots(), Rho: period.Rho(),
			Present: d.inc.NumPresent(), Live: true, Objective: objective, Watchers: watchers}
	case controlplane.QueryUtility:
		u := d.inc.Utility()
		out.Utility = &u
	case controlplane.QuerySchedule:
		sched, err := sr.schedule(id, root, d)
		if err != nil {
			return nil, err
		}
		out.Schedule = sched
	default:
		return nil, fmt.Errorf("query %q not replayed", q.What)
	}
	return &controlplane.Response{Op: controlplane.OpQuery, Query: out}, nil
}

func (sr *stageReplay) list(tenant string) *controlplane.Response {
	out := &controlplane.ListResponse{Snapshots: []controlplane.SnapshotInfo{}}
	for _, fp := range sr.order {
		d := sr.deps[fp]
		if d.snap.Tenant != tenant {
			continue
		}
		info := controlplane.SnapshotInfo{Fingerprint: fp, Name: d.snap.Name, Parent: d.snap.Parent,
			Seq: d.snap.Seq, Sensors: len(d.snap.Spec.Sensors), Targets: len(d.snap.Spec.Targets)}
		if d.planned {
			info.Objective = controlplane.ObjectiveUtility
		}
		out.Snapshots = append(out.Snapshots, info)
	}
	return &controlplane.Response{Op: controlplane.OpList, List: out}
}

// servingReplay feeds the same stream to an in-process
// controlplane.Server through ServeConn over net.Pipe (with a store in
// a scratch dir, so WAL appends really fsync), timing each request's
// round trip and its allocations.
type servingReplay struct {
	handle map[int]time.Duration // by request id
	allocs map[int]uint64
	bytes  map[int]uint64
	pushes int
}

func (r *run) runServingReplay(dir string) (*servingReplay, error) {
	st, rec, err := controlplane.OpenStore(dir, controlplane.StoreOptions{})
	if err != nil {
		return nil, err
	}
	srv := controlplane.NewServer(controlplane.Config{})
	if _, err := srv.UseStore(st, rec); err != nil {
		return nil, err
	}
	defer srv.Close()
	open := func() (*conn, error) {
		a, b := net.Pipe()
		go srv.ServeConn(b)
		return handshake(a)
	}
	reqs, err := open()
	if err != nil {
		return nil, err
	}
	defer reqs.close()
	watch, err := open()
	if err != nil {
		return nil, err
	}
	out := &servingReplay{handle: make(map[int]time.Duration), allocs: make(map[int]uint64), bytes: make(map[int]uint64)}
	drained := make(chan int, 1)
	draining := false
	var before, after runtime.MemStats
	for i, o := range r.replayOps() {
		if !o.ok() {
			continue
		}
		if o.label == "watch" {
			if _, _, err := watch.roundTrip(o.frame); err != nil {
				return nil, err
			}
			continue
		}
		if !draining && r.workload == wReplanWatch && o.phase != "setup" {
			draining = true
			go func() {
				n := 0
				for {
					if _, _, err := watch.readFrame(); err != nil {
						drained <- n
						return
					}
					n++
				}
			}()
		}
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		if _, err := reqs.nc.Write(o.frame); err != nil {
			return nil, err
		}
		if _, _, err := reqs.readFrame(); err != nil {
			return nil, err
		}
		out.handle[i] = time.Since(t0)
		runtime.ReadMemStats(&after)
		out.allocs[i] = after.Mallocs - before.Mallocs
		out.bytes[i] = after.TotalAlloc - before.TotalAlloc
	}
	watch.close()
	if draining {
		out.pushes = <-drained
	}
	return out, nil
}

// walReplay times OpenStore + Server.UseStore on a copy of the run's
// data dir, taken when coold was SIGKILLed.
func walReplay(dir string) (time.Duration, error) {
	t0 := time.Now()
	st, rec, err := controlplane.OpenStore(dir, controlplane.StoreOptions{})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	srv := controlplane.NewServer(controlplane.Config{})
	if _, err := srv.UseStore(st, rec); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// traceRun is a --trace 1 invocation: an untraced pass and a traced
// pass of the same seed over TCP (their difference is the tracing
// overhead), then the in-process stage and serving replays of the
// traced pass's acknowledged stream.
func traceRun(e env, workload string, seed uint64, seconds float64, sc scale) (*result, error) {
	sc.setups, sc.coldSetups, sc.recoveries = 1, 1, 1
	plain, err := newRun(workload, seed, seconds, sc, e.bin, e.work, false)
	if err != nil {
		return nil, err
	}
	err = plain.execute()
	plain.cleanup()
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	plainRes := plain.result(nil)
	if plainRes.failed > 0 {
		return nil, fmt.Errorf("untraced pass failed %d operations:\n%s", plainRes.failed, plainRes.text)
	}
	plainRep := plain.rep
	plain = nil
	runtime.GC()

	r, err := newRun(workload, seed, seconds, sc, e.bin, e.work, true)
	if err != nil {
		return nil, err
	}
	defer r.cleanup()
	if err := r.execute(); err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	if err := r.layers(plainRep); err != nil {
		return nil, err
	}
	return r.result(perLayer), nil
}

// perLayer lists the per-layer metrics a --trace 1 run summarises,
// each measured on every workload; the report adds the
// workload-specific ones.
var perLayer = []string{
	"wire.decode_request_us", "wire.encode_response_us", "wire.encode_schedule_us",
	"wire.request_bytes", "wire.response_bytes", "wire.schedule_bytes",
	"admission.normalize_us", "admission.fingerprint_us",
	"network.build_ms", "network.edges", "oracle.build_ms",
	"wal.append_ms", "wal.append_bytes", "wal.replay_ms",
	"engine.plan_ms", "engine.schedule_us",
	"serving.handle_us", "serving.unattributed_us", "serving.allocs_per_op", "serving.alloc_bytes_per_op",
	"process.rss_mb", "process.gc_cycles", "process.gc_cpu_share",
	"client.encode_us", "client.write_us", "client.wait_us", "client.read_us", "client.decode_us",
	"client.full_decode_us",
	"loadgen.lag_p99_ms", "loadgen.cpu_share",
	"trace.overhead_ms",
}

// layers runs the replays and reports the per-layer breakdown.
func (r *run) layers(plain *report) error {
	// Client-side spans of the traced TCP pass.
	var enc, write, wait, read, dec, full sample
	for _, o := range r.allOps() {
		if !o.ok() || o.phase == "setup" {
			continue
		}
		enc = append(enc, us(o.encode))
		write = append(write, us(o.write))
		wait = append(wait, us(o.wait))
		read = append(read, us(o.read))
		dec = append(dec, us(o.decode))
		if o.resp != nil {
			t0 := time.Now()
			controlplane.DecodeResponse(o.resp)
			full = append(full, us(time.Since(t0)))
		}
	}
	if r.watch != nil {
		for _, ps := range r.watch.pushes {
			for _, p := range ps {
				dec = append(dec, us(p.decode))
			}
		}
	}
	r.rep.set("client.encode_us", "us", enc.median(), len(enc), "request encoding, done before coold starts")
	r.rep.set("client.write_us", "us", write.median(), len(write), "")
	r.rep.set("client.wait_us", "us", wait.median(), len(wait), "")
	r.rep.set("client.read_us", "us", read.median(), len(read), "")
	r.rep.set("client.decode_us", "us", dec.median(), len(dec), "prefix parse on the timed path")
	r.rep.set("client.full_decode_us", "us", full.median(), len(full), "DecodeResponse of kept answers")
	r.rep.set("process.rss_mb", "MiB", r.rssSamples.mean(), len(r.rssSamples), "mean of the samples behind rss_mean_mb")
	r.rep.logf("process.rss_mb samples: min %.1f max %.1f", r.rssSamples.quantile(0), r.rssSamples.quantile(1))
	r.rep.set("process.gc_cycles", "count", float64(r.gcCycles), 0, "timed phase, GODEBUG=gctrace=1")
	r.rep.set("process.gc_cpu_share", "share", r.gcShare, 0, "collector CPU over coold CPU, timed phase")
	for _, name := range fedMedians[r.workload] {
		t, _ := r.rep.get(name)
		p, _ := plain.get(name)
		r.rep.logf("tracing overhead %s: traced %.4f ms, untraced %.4f ms", name, t.Value, p.Value)
	}
	headline := fedMedians[r.workload][0]
	t, _ := r.rep.get(headline)
	p, _ := plain.get(headline)
	r.rep.set("trace.overhead_ms", "ms", t.Value-p.Value, 0, "traced minus untraced "+headline)

	// In-process stage replay.
	sr, err := r.runStageReplay(filepath.Join(r.work, "replay-stages"))
	if err != nil {
		return err
	}
	r.rep.logf("replay reproduced %d of %d comparable answers byte for byte", sr.checked-sr.mismatch, sr.checked)
	if sr.checked == 0 || sr.mismatch > 0 {
		for i := 0; i < max(sr.mismatch, 1); i++ {
			r.tally.add("replay", "answer", "mismatch")
		}
	} else {
		r.tally.add("replay", "answer", "")
	}
	r.stageMetrics(sr)

	// In-process serving replay.
	sv, err := r.runServingReplay(filepath.Join(r.work, "replay-serving"))
	if err != nil {
		return err
	}
	r.servingMetrics(sr, sv)
	sr, sv = nil, nil
	runtime.GC()

	replay, err := walReplay(r.recoverDir)
	if err != nil {
		return err
	}
	r.rep.set("wal.replay_ms", "ms", ms(replay), 0, "OpenStore + UseStore on a copy of the crashed data dir")
	return nil
}

// stageSample collects the self times of the named spans of the timed
// requests (setup requests too when withSetup).
func stageSample(sr *stageReplay, self []time.Duration, match func(string) bool, unit func(time.Duration) float64, setupIDs int, withSetup bool) (sample, sample) {
	var t, counts sample
	for i, s := range sr.tr.spans {
		if !match(s.name) || (!withSetup && s.req < setupIDs) {
			continue
		}
		t = append(t, unit(self[i]))
		counts = append(counts, float64(s.count))
	}
	return t, counts
}

func (r *run) stageMetrics(sr *stageReplay) {
	self := sr.tr.selfTimes()
	nSetup := len(r.setupOps)
	is := func(name string) func(string) bool { return func(s string) bool { return s == name } }
	prefix := func(p string) func(string) bool {
		return func(s string) bool { return len(s) >= len(p) && s[:len(p)] == p }
	}
	set := func(name, unit string, s sample, note string) {
		r.rep.set(name, unit, s.median(), len(s), note)
	}
	// Timed-phase request stages.
	dec, reqBytes := stageSample(sr, self, is("wire.decode_request"), us, nSetup, false)
	set("wire.decode_request_us", "us", dec, "")
	set("wire.request_bytes", "B", reqBytes, "")
	enc, respBytes := stageSample(sr, self, is("wire.encode_response"), us, nSetup, false)
	set("wire.encode_response_us", "us", enc, "")
	set("wire.response_bytes", "B", respBytes, "")
	sched, _ := stageSample(sr, self, is("engine.schedule"), us, nSetup, false)
	set("engine.schedule_us", "us", sched, "")

	// The frame carrying a schedule to a client: the push in
	// replan-watch, the query answer in poll, the plan answer in onboard.
	var schedEnc, schedBytes sample
	if r.workload == wReplanWatch {
		schedEnc, schedBytes = stageSample(sr, self, is("wire.encode_push"), us, nSetup, false)
		set("wire.encode_push_us", "us", schedEnc, "")
		set("wire.push_bytes", "B", schedBytes, "")
	} else {
		label := "plan"
		if r.workload == wPoll {
			label = "query-schedule"
		}
		ids := make(map[int]bool)
		for i, o := range r.replayOps() {
			if o.label == label && i >= nSetup {
				ids[i] = true
			}
		}
		for i, s := range sr.tr.spans {
			if s.name == "wire.encode_response" && ids[s.req] {
				schedEnc = append(schedEnc, us(self[i]))
				schedBytes = append(schedBytes, float64(s.count))
			}
		}
	}
	set("wire.encode_schedule_us", "us", schedEnc, "")
	set("wire.schedule_bytes", "B", schedBytes, "")

	// Admission, network, oracle, WAL and plan work, set-up included
	// (in replan-watch and poll it happens only there).
	norm, _ := stageSample(sr, self, is("admission.normalize"), us, nSetup, true)
	set("admission.normalize_us", "us", norm, "")
	fp, _ := stageSample(sr, self, is("admission.fingerprint"), us, nSetup, true)
	set("admission.fingerprint_us", "us", fp, "")
	r.rep.set("admission.resubmit_share", "share", float64(sr.resubmit)/float64(max(sr.submits, 1)), sr.submits, "")
	nb, edges := stageSample(sr, self, prefix("network.build"), ms, nSetup, true)
	set("network.build_ms", "ms", nb, "all sizes")
	r.rep.set("network.edges", "count", edges.mean(), len(edges), "mean sensor-target incidences per network")
	ob, _ := stageSample(sr, self, prefix("oracle.build"), ms, nSetup, true)
	set("oracle.build_ms", "ms", ob, "all sizes and utilities")
	wa, wb := stageSample(sr, self, is("wal.append"), ms, nSetup, true)
	set("wal.append_ms", "ms", wa, "")
	set("wal.append_bytes", "B", wb, "")
	ck, cb := stageSample(sr, self, is("wal.checkpoint"), ms, nSetup, true)
	r.rep.set("wal.checkpoints", "count", float64(len(ck)), 0, "")
	if len(ck) > 0 {
		set("wal.checkpoint_ms", "ms", ck, "")
		set("wal.checkpoint_bytes", "B", cb, "")
	}
	pl, _ := stageSample(sr, self, prefix("engine.plan"), ms, nSetup, true)
	set("engine.plan_ms", "ms", pl, "all sizes")
	// By size and utility.
	names := map[string]bool{}
	for _, s := range sr.tr.spans {
		names[s.name] = true
	}
	var sizedNames []string
	for n := range names {
		for _, p := range []string{"network.build.", "oracle.build.", "engine.plan."} {
			if len(n) > len(p) && n[:len(p)] == p {
				sizedNames = append(sizedNames, n)
			}
		}
	}
	sort.Strings(sizedNames)
	for _, n := range sizedNames {
		s, _ := stageSample(sr, self, is(n), ms, nSetup, true)
		base, rest := splitSized(n)
		set(base+"_ms."+rest, "ms", s, "")
	}

	// Repair work (replan-watch and poll).
	if len(sr.repairs) > 0 {
		rep, _ := stageSample(sr, self, is("engine.repair"), us, nSetup, false)
		set("engine.repair_us", "us", rep, "")
		var dirty, moves, rounds, mpd sample
		for _, st := range sr.repairs {
			dirty = append(dirty, float64(st.Dirty))
			moves = append(moves, float64(st.Moves))
			rounds = append(rounds, float64(st.Rounds))
			if st.Dirty > 0 {
				mpd = append(mpd, float64(st.Moves)/float64(st.Dirty))
			}
		}
		r.rep.set("engine.repair_dirty", "count", dirty.mean(), len(dirty), "mean")
		r.rep.set("engine.repair_moves", "count", moves.mean(), len(moves), "mean")
		r.rep.set("engine.repair_rounds", "count", rounds.mean(), len(rounds), "mean")
		r.rep.set("engine.moves_per_dirty", "ratio", mpd.mean(), len(mpd), "mean over repairs with a damage front")
	}
}

// splitSized turns "network.build.n1000" into ("network.build", "n1000").
func splitSized(n string) (string, string) {
	dots := 0
	for i := range n {
		if n[i] == '.' {
			dots++
			if dots == 2 {
				return n[:i], n[i+1:]
			}
		}
	}
	return n, ""
}

// servingMetrics reports the in-process serving replay, the time it
// leaves unattributed to stage spans, and the shares of the measured
// end-to-end medians that the stage spans account for.
func (r *run) servingMetrics(sr *stageReplay, sv *servingReplay) {
	ops := r.replayOps()
	nSetup := len(r.setupOps)
	stageSum := make(map[int]time.Duration)
	for _, s := range sr.tr.spans {
		if s.parent >= 0 {
			stageSum[s.req] += s.end - s.start
		}
	}
	var handle, unattr, allocs, abytes sample
	byOp := map[string]*[3]sample{}
	var labels []string
	for i, o := range ops {
		h, ok := sv.handle[i]
		if !ok || i < nSetup {
			continue
		}
		handle = append(handle, us(h))
		unattr = append(unattr, us(h-stageSum[i]))
		allocs = append(allocs, float64(sv.allocs[i]))
		abytes = append(abytes, float64(sv.bytes[i]))
		b, seen := byOp[o.label]
		if !seen {
			b = new([3]sample)
			byOp[o.label] = b
			labels = append(labels, o.label)
		}
		b[0] = append(b[0], us(h))
		b[1] = append(b[1], us(stageSum[i]))
		b[2] = append(b[2], float64(sv.allocs[i]))
	}
	r.rep.set("serving.handle_us", "us", handle.median(), len(handle), "in-process ServeConn over net.Pipe")
	r.rep.set("serving.unattributed_us", "us", unattr.median(), len(unattr), "handle minus the stage spans")
	r.rep.set("serving.allocs_per_op", "count", allocs.mean(), len(allocs), "")
	r.rep.set("serving.alloc_bytes_per_op", "B", abytes.mean(), len(abytes), "")
	sort.Strings(labels)
	for _, l := range labels {
		b := byOp[l]
		r.rep.set("serving.handle_us."+l, "us", b[0].median(), len(b[0]), "")
		r.rep.set("stages_us."+l, "us", b[1].median(), len(b[1]), "sum of stage spans")
		r.rep.set("serving.allocs_per_op."+l, "count", b[2].mean(), len(b[2]), "")
	}
	replans := 0
	for _, o := range ops {
		if o.label == "replan" && o.phase != "setup" {
			replans++
		}
	}
	if r.workload == wReplanWatch {
		r.rep.set("serving.pushes_per_replan", "ratio", float64(sv.pushes)/float64(max(replans, 1)), replans, "")
	}

	// Shares of the measured medians the replayed stages account for.
	share := func(metricName, label string) float64 {
		m, _ := r.rep.get(metricName)
		b := byOp[label]
		if b == nil {
			return 0
		}
		return ms(time.Duration(b[1].median()*float64(time.Microsecond))) / m.Value
	}
	switch r.workload {
	case wReplanWatch:
		r.rep.set("trace.update_attributed_share", "share", share("replan_p50_ms", "replan"), 0, "stage spans / replan_p50_ms")
		r.rep.set("trace.schedule_attributed_share", "share", share("push_p50_ms", "replan"), 0, "stage spans / push_p50_ms")
		r.roadmapAnswer(sr)
	case wPoll:
		r.rep.set("trace.update_attributed_share", "share", share("replan_p50_ms", "replan"), 0, "stage spans / replan_p50_ms")
		r.rep.set("trace.schedule_attributed_share", "share", share("query_p50_ms", "query-schedule"), 0, "stage spans / query_p50_ms")
	case wOnboard:
		r.rep.set("trace.update_attributed_share", "share", share("submit_p50_ms", "submit"), 0, "stage spans / submit_p50_ms")
		r.rep.set("trace.schedule_attributed_share", "share", share("onboard_p50_ms", "plan"), 0, "plan stage spans / onboard_p50_ms")
		wa, _ := r.rep.get("wal.append_ms")
		sub, _ := r.rep.get("submit_p50_ms")
		r.rep.logf("finding: wal.append_ms %.3f ms is %.1f%% of submit_p50_ms %.3f ms",
			wa.Value, 100*wa.Value/sub.Value, sub.Value)
	}
}

// roadmapAnswer reports which replan-watch stage dominates the push.
func (r *run) roadmapAnswer(sr *stageReplay) {
	get := func(n string) float64 { m, _ := r.rep.get(n); return m.Value }
	push := get("push_p50_ms") * 1000
	codec := get("engine.schedule_us") + get("wire.encode_push_us")
	repair := get("engine.repair_us")
	r.rep.logf("finding: engine.schedule_us + wire.encode_push_us = %.1f us = %.1f%% of push_p50_ms; engine.repair_us = %.1f us = %.1f%%",
		codec, 100*codec/push, repair, 100*repair/push)
}
