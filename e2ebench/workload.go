package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"cool/internal/controlplane"
	"cool/internal/stats"
)

// scale sizes every workload. fullScale is the benchmark; tinyScale
// is the self-test's, small enough to finish in seconds.
type scale struct {
	preloadN int // sensors per preloaded deployment (replan-watch, poll)
	smallN   int // stream S onboarding size
	largeN   int // stream L onboarding size

	fixedRate float64   // replan-watch fixed-rate phase, req/s
	ladder    []float64 // replan-watch ladder rates, req/s
	rungReqs  int       // requests per ladder rung
	pollRate  float64   // poll, req/s per connection
	smallRate float64   // onboard stream S, onboardings/s
	largeRate float64   // onboard stream L, onboardings/s
	maxSmall  int       // stream S fresh specs (below coold's 1024/tenant limit)

	setups      int // set-ups per run; setup_s is their median
	coldSetups  int // onboard's set-ups, a bare launch, so more of them
	recoveries  int // crash-relaunch cycles per run; recover_s is their median
	sampleSmall int // stream S plans re-planned directly in verification
}

var fullScale = scale{
	preloadN: 10000, smallN: 1000, largeN: 10000,
	fixedRate: 300, ladder: []float64{600, 750, 900, 1050}, rungReqs: 1250,
	pollRate: 150, smallRate: 15, largeRate: 0.5, maxSmall: 900,
	setups: 3, coldSetups: 25, recoveries: 3, sampleSmall: 24,
}

var tinyScale = scale{
	preloadN: 400, smallN: 60, largeN: 400,
	fixedRate: 200, ladder: []float64{300, 400}, rungReqs: 120,
	pollRate: 100, smallRate: 40, largeRate: 4, maxSmall: 200,
	setups: 2, coldSetups: 3, recoveries: 2, sampleSmall: 8,
}

// Workload names, as BENCHMARK.json lists them.
const (
	wReplanWatch = "replan-watch"
	wPoll        = "poll"
	wOnboard     = "onboard"
)

var workloads = []string{wReplanWatch, wPoll, wOnboard}

// run is one benchmark run of one workload.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	sc       scale
	bin      string // coold binary
	work     string // scratch directory of this run
	traced   bool

	deps     []*depSpec
	streams  [][]*op // timed ops per connection
	setupOps []*op   // closed-loop set-up requests of the kept set-up
	events0  map[int]uint64
	plans0   map[int][]byte // set-up plan answers by deployment

	d       *daemon
	conns   []*conn
	dataDir string
	watch   *watcher
	start   time.Time
	elapsed time.Duration // timed phase, first due time to last answer

	rep   *report
	tally *tally

	recoverDir  string // copy of the data dir taken at the crash (traced runs)
	rssSamples  sample
	selfCPU     time.Duration
	daemonCPU   time.Duration
	gcCycles    int
	gcShare     float64
	verifyFails int
}

// newRun prepares a run whose scratch files (data dirs, replay
// stores) live in a fresh directory under parent; cleanup removes it.
func newRun(workload string, seed uint64, seconds float64, sc scale, bin, parent string, traced bool) (*run, error) {
	work, err := os.MkdirTemp(parent, workload+"-")
	if err != nil {
		return nil, err
	}
	return &run{workload: workload, seed: seed, seconds: seconds, sc: sc, bin: bin, work: work,
		traced: traced, rep: newReport(), tally: newTally(),
		events0: make(map[int]uint64), plans0: make(map[int][]byte)}, nil
}

func (r *run) cleanup() { os.RemoveAll(r.work) }

// execute generates the inputs, sets coold up (several times, keeping
// the last), runs the timed phase, verifies the answers and finally
// crashes and relaunches coold to time recovery.
func (r *run) execute() error {
	if err := r.generate(); err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	var setups sample
	n := r.sc.setups
	if r.workload == wOnboard {
		n = r.sc.coldSetups
	}
	for k := 0; k < n; k++ {
		if r.d != nil {
			for _, c := range r.conns {
				c.close()
			}
			r.d.kill()
			os.RemoveAll(r.dataDir)
		}
		s, err := r.setup(k)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s.Seconds())
	}
	defer func() {
		if r.d != nil {
			r.d.kill()
		}
	}()
	r.rep.set("setup_s", "s", setups.median(), len(setups), "")
	if err := r.timed(); err != nil {
		return fmt.Errorf("timed phase: %w", err)
	}
	if err := r.verify(); err != nil {
		return fmt.Errorf("verification: %w", err)
	}
	if err := r.recover(); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	r.metrics()
	return nil
}

// generate builds every deployment and request of the run from the
// seed, encoded, before coold starts.
func (r *run) generate() error {
	rng := stats.NewRNG(r.seed)
	specSeed := func(i int) uint64 { return r.seed*1_000_003 + uint64(i) }
	var err error
	switch r.workload {
	case wReplanWatch, wPoll:
		for i, rho := range []float64{3, 1.0 / 3} {
			d, err := genSpec("field", fmt.Sprintf("field-%d", i), r.sc.preloadN, rho, true, specSeed(i))
			if err != nil {
				return err
			}
			r.deps = append(r.deps, d)
		}
		if r.workload == wReplanWatch {
			err = r.genReplanWatch(rng)
		} else {
			err = r.genPoll(rng)
		}
	case wOnboard:
		err = r.genOnboard(rng, specSeed)
	default:
		err = fmt.Errorf("unknown workload %q", r.workload)
	}
	for c, s := range r.streams {
		for _, o := range s {
			o.conn = c
		}
	}
	return err
}

// ladderLayout returns the fixed phase's length and each rung's span.
func (r *run) ladderLayout() (time.Duration, []time.Duration) {
	total := time.Duration(r.seconds * float64(time.Second))
	spans := make([]time.Duration, len(r.sc.ladder))
	var ladder time.Duration
	for i, rate := range r.sc.ladder {
		spans[i] = time.Duration(float64(r.sc.rungReqs) / rate * float64(time.Second))
		ladder += spans[i]
	}
	fixed := total - ladder
	if fixed < total/2 {
		// Short runs keep half their time at the fixed rate and shrink
		// the rungs proportionally.
		f := float64(total/2) / float64(ladder)
		for i := range spans {
			spans[i] = time.Duration(float64(spans[i]) * f)
		}
		fixed = total / 2
	}
	return fixed, spans
}

func phaseRung(i int) string { return "ladder-" + strconv.Itoa(i) }

// genReplanWatch: one connection carries a Poisson stream of replans
// on both deployments, one in five being a utility or status query;
// first at the fixed rate, then at each ladder rate in turn.
func (r *run) genReplanWatch(rng *stats.RNG) error {
	fleets := []*fleet{newFleet(r.sc.preloadN), newFleet(r.sc.preloadN)}
	fixed, spans := r.ladderLayout()
	type window struct {
		phase      string
		rate       float64
		from, span time.Duration
	}
	wins := []window{{"fixed", r.sc.fixedRate, 0, fixed}}
	at := fixed
	for i, rate := range r.sc.ladder {
		wins = append(wins, window{phaseRung(i), rate, at, spans[i]})
		at += spans[i]
	}
	var ops []*op
	for _, w := range wins {
		for _, due := range arrivals(rng, w.rate, w.from, w.span) {
			dep := rng.Intn(2)
			var (
				o   *op
				err error
			)
			switch u := rng.Float64(); {
			case u < 0.1:
				o, err = queryOp(controlplane.QueryUtility, w.phase, dep, due, r.deps[dep])
			case u < 0.2:
				o, err = queryOp(controlplane.QueryStatus, w.phase, dep, due, r.deps[dep])
			default:
				kill, ids := fleets[dep].next(rng)
				o, err = replanOp(w.phase, dep, due, r.deps[dep], kill, ids)
			}
			if err != nil {
				return err
			}
			ops = append(ops, o)
		}
	}
	r.streams = [][]*op{ops}
	return nil
}

// genPoll: two connections each poll both deployments' schedules in
// turn; one request in twenty is a replan of the connection's own
// deployment (so each deployment has a single mutating connection) and
// one in twenty a status or list.
func (r *run) genPoll(rng *stats.RNG) error {
	total := time.Duration(r.seconds * float64(time.Second))
	for c := 0; c < 2; c++ {
		fl := newFleet(r.sc.preloadN)
		var ops []*op
		turn := c
		for _, due := range arrivals(rng, r.sc.pollRate, 0, total) {
			var (
				o   *op
				err error
			)
			switch u := rng.Float64(); {
			case u < 0.05:
				kill, ids := fl.next(rng)
				o, err = replanOp("timed", c, due, r.deps[c], kill, ids)
			case u < 0.075:
				o, err = queryOp(controlplane.QueryStatus, "timed", turn%2, due, r.deps[turn%2])
			case u < 0.1:
				o, err = listOp("timed", due, r.deps[0].tenant)
			default:
				o, err = queryOp(controlplane.QuerySchedule, "timed", turn%2, due, r.deps[turn%2])
				turn++
			}
			if err != nil {
				return err
			}
			ops = append(ops, o)
		}
		r.streams = append(r.streams, ops)
	}
	return nil
}

// genOnboard: stream S (tenant A) submits and plans small deployments,
// every tenth onboarding an idempotent resubmit of an earlier spec;
// stream L (tenant B) does the same for large deployments at a low,
// evenly spaced rate. Submit and plan are sent together at the due
// time; the plan names the fingerprint the client derived itself. The
// mix is fixed (one spec in four uses the detection utility, ρ rotates
// over both scheduling regimes) and only geometry, arrival times and
// resubmit targets come from the seed, so the offered work is the same
// on every seed.
func (r *run) genOnboard(rng *stats.RNG, specSeed func(int) uint64) error {
	total := time.Duration(r.seconds * float64(time.Second))
	rhos := []float64{3, 1.0 / 2, 2, 1.0 / 3}
	spec := func(tenant, name string, n, i int) (int, error) {
		d, err := genSpec(tenant, name, n, rhos[i%len(rhos)], i%4 == 3, specSeed(len(r.deps)))
		if err != nil {
			return 0, err
		}
		r.deps = append(r.deps, d)
		return len(r.deps) - 1, nil
	}
	onboard := func(dep int, due time.Duration) ([]*op, error) {
		sub, err := submitOp("timed", dep, due, r.deps[dep])
		if err != nil {
			return nil, err
		}
		pl, err := planOp("timed", dep, due, r.deps[dep])
		if err != nil {
			return nil, err
		}
		return []*op{sub, pl}, nil
	}
	var small, large []*op
	fresh := 0
	for i, due := range arrivals(rng, r.sc.smallRate, 0, total) {
		var dep int
		switch {
		case i%10 == 9:
			dep = r.pickFresh(rng, "A")
		case fresh < r.sc.maxSmall:
			var err error
			if dep, err = spec("A", fmt.Sprintf("s-%d", fresh), r.sc.smallN, fresh); err != nil {
				return err
			}
			fresh++
		default:
			continue
		}
		ops, err := onboard(dep, due)
		if err != nil {
			return err
		}
		small = append(small, ops...)
	}
	nLarge := int(math.Round(r.sc.largeRate * total.Seconds()))
	for i := 0; i < nLarge; i++ {
		dep, err := spec("B", fmt.Sprintf("l-%d", i), r.sc.largeN, i)
		if err != nil {
			return err
		}
		ops, err := onboard(dep, total*time.Duration(2*i+1)/time.Duration(2*nLarge))
		if err != nil {
			return err
		}
		large = append(large, ops...)
	}
	r.streams = [][]*op{small, large}
	return nil
}

// pickFresh draws an already generated deployment of the tenant.
func (r *run) pickFresh(rng *stats.RNG, tenant string) int {
	for {
		i := rng.Intn(len(r.deps))
		if r.deps[i].tenant == tenant {
			return i
		}
	}
}

// setup launches coold on a fresh data dir and brings it to the state
// the timed phase starts from, returning how long that took.
func (r *run) setup(k int) (time.Duration, error) {
	r.dataDir = filepath.Join(r.work, fmt.Sprintf("data-%d", k))
	t0 := time.Now()
	d, err := startDaemon(r.bin, r.dataDir, r.traced)
	if err != nil {
		return 0, err
	}
	r.d = d
	r.setupOps = nil
	conns := make([]*conn, 2)
	for i := range conns {
		if conns[i], err = dial(d.addr); err != nil {
			return 0, err
		}
	}
	if r.workload != wOnboard {
		for i, dep := range r.deps {
			sub, err := submitOp("setup", i, 0, dep)
			if err != nil {
				return 0, err
			}
			pl, err := planOp("setup", i, 0, dep)
			if err != nil {
				return 0, err
			}
			for _, o := range []*op{sub, pl} {
				if _, err := r.setupCall(conns[0], o); err != nil {
					return 0, fmt.Errorf("%s %s: %w", o.label, dep.name, err)
				}
			}
			r.plans0[i] = pl.resp
		}
		if r.workload == wReplanWatch {
			for i, dep := range r.deps {
				o, err := watchOp("setup", i, dep)
				if err != nil {
					return 0, err
				}
				o.conn = 1
				resp, err := r.setupCall(conns[1], o)
				if err != nil {
					return 0, fmt.Errorf("watch %s: %w", dep.name, err)
				}
				r.events0[i] = resp.Watch.Events
			}
		}
	}
	elapsed := time.Since(t0)
	r.conns = conns
	return elapsed, nil
}

// setupCall runs one closed-loop request and records it for replay.
func (r *run) setupCall(c *conn, o *op) (*controlplane.Response, error) {
	c.setDeadline(answerTimeout)
	// Set-up requests are closed-loop; their nominal send and answer
	// times only record their order.
	o.sent = time.Duration(len(r.setupOps))
	resp, raw, err := c.roundTrip(o.frame)
	o.resp = raw
	o.recv = o.sent + 1
	if err != nil {
		var we *controlplane.WireError
		if errors.As(err, &we) {
			o.code = string(we.Code)
		} else {
			o.code = "transport"
		}
		r.tally.add("setup", o.label, o.code)
		return nil, err
	}
	r.tally.add("setup", o.label, "")
	r.setupOps = append(r.setupOps, o)
	return resp, nil
}

// timed runs the workload's streams open-loop and records coold's CPU
// and memory over the phase.
func (r *run) timed() error {
	cpu0, err := r.d.cpuTime()
	if err != nil {
		return err
	}
	self0 := selfCPU()
	r.start = time.Now().Add(20 * time.Millisecond)
	var fixedCPU chan time.Duration
	if r.workload == wReplanWatch {
		r.watch = startWatcher(r.conns[1], r.start, r.traced)
		// replan-watch charges coold's CPU over the fixed-rate phase
		// only: the ladder ends in overload, whose cost per request is
		// a different quantity.
		fixedCPU = make(chan time.Duration, 1)
		fixed, _ := r.ladderLayout()
		go func() {
			sleepUntil(r.start.Add(fixed))
			c, _ := r.d.cpuTime()
			fixedCPU <- c
		}()
	}
	gc0, gcCPU0 := r.d.gcStats()
	stopRSS := r.sampleRSS()
	done := make(chan struct{}, len(r.streams))
	for i := range r.streams {
		go func(i int) {
			runStream(r.conns[i], r.streams[i], r.start, r.traced)
			done <- struct{}{}
		}(i)
	}
	for range r.streams {
		<-done
	}
	if r.watch != nil {
		want := 0
		for _, o := range r.streams[0] {
			if o.label == "replan" && o.ok() {
				want++
			}
		}
		if err := r.watch.await(want, 30*time.Second); err != nil {
			r.tally.add("verify", "push", "missing")
			r.rep.logf("error: %v", err)
		}
	}
	r.elapsed = time.Since(r.start)
	stopRSS()
	r.rep.set("rss_mean_mb", "MiB", r.rssSamples.mean(), len(r.rssSamples), "VmRSS sampled every 100 ms over the timed phase")
	cpu1, err := r.d.cpuTime()
	if err != nil {
		return err
	}
	r.daemonCPU = cpu1 - cpu0
	if fixedCPU != nil {
		r.daemonCPU = <-fixedCPU - cpu0
	}
	r.selfCPU = selfCPU() - self0
	hwm, err := r.d.status("VmHWM")
	if err != nil {
		return err
	}
	r.rep.set("rss_peak_mb", "MiB", hwm/1024, 0, "")
	rss, err := r.d.status("VmRSS")
	if err != nil {
		return err
	}
	r.rep.set("rss_end_mb", "MiB", rss/1024, 0, "VmRSS when the timed phase ends")
	cycles, gcCPU := r.d.gcStats()
	r.gcCycles = cycles - gc0
	r.gcShare = float64(gcCPU-gcCPU0) / float64(cpu1-cpu0)
	for _, s := range r.streams {
		for _, o := range s {
			r.tally.add(o.phase, o.label, o.code)
		}
	}
	return nil
}

// sampleRSS records coold's resident set every 100 ms until stopped.
func (r *run) sampleRSS() func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if kb, err := r.d.status("VmRSS"); err == nil {
					r.rssSamples = append(r.rssSamples, kb/1024)
				}
			}
		}
	}()
	return func() { close(stop); <-done }
}

// selfCPU is the generator's own user plus system CPU so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// recover SIGKILLs coold, relaunches it on the same data dir and times
// the first successful plan of a recovered deployment, which must be
// bit-identical to that deployment's plan before the crash.
func (r *run) recover() error {
	for _, c := range r.conns {
		c.close()
	}
	r.d.kill()
	r.d = nil
	if r.traced {
		r.recoverDir = filepath.Join(r.work, "data-copy")
		if err := copyDir(r.dataDir, r.recoverDir); err != nil {
			return err
		}
	}
	dep, want := r.recoverTarget()
	if want == nil {
		return errors.New("no acknowledged plan to recover")
	}
	o, err := planOp("recover", dep, 0, r.deps[dep])
	if err != nil {
		return err
	}
	// Plans are not logged, so every relaunch replays the same durable
	// state; recover_s is the median over several crashes.
	var times sample
	for k := 0; k < r.sc.recoveries; k++ {
		if r.d != nil {
			r.d.kill()
			r.d = nil
		}
		t0 := time.Now()
		d, err := startDaemon(r.bin, r.dataDir, false)
		if err != nil {
			return err
		}
		r.d = d
		c, err := dial(d.addr)
		if err != nil {
			return err
		}
		c.setDeadline(answerTimeout)
		_, raw, err := c.roundTrip(o.frame)
		times = append(times, time.Since(t0).Seconds())
		c.close()
		code := ""
		if err != nil {
			code = "error"
			r.rep.logf("error: recovered plan: %v", err)
		} else if string(raw) != string(want) {
			code = "mismatch"
			r.rep.logf("error: recovered plan of %s differs from its plan before the crash", r.deps[dep].name)
		}
		r.tally.add("recover", "plan", code)
	}
	r.rep.set("recover_s", "s", times.median(), len(times), "")
	return nil
}

// recoverTarget picks the deployment whose plan is checked after the
// relaunch, with the answer it had before the crash.
func (r *run) recoverTarget() (int, []byte) {
	if r.workload != wOnboard {
		return 0, r.plans0[0]
	}
	var cands []*op
	for _, o := range r.streams[0] {
		if o.label == "plan" && o.ok() {
			cands = append(cands, o)
		}
	}
	if len(cands) == 0 {
		return 0, nil
	}
	o := cands[stats.NewRNG(r.seed^0x9e3779b97f4a7c15).Intn(len(cands))]
	return o.dep, o.resp
}

// allOps returns every answered timed op in one order coold could have
// served them in: each connection's own order, merged by answer time,
// except that fresh admissions follow the registry Seq coold stamped
// on them, which fixes how concurrent submits interleaved.
func (r *run) allOps() []*op {
	var answered [][]*op
	for _, s := range r.streams {
		var a []*op
		for _, o := range s {
			if o.answered() {
				a = append(a, o)
			}
		}
		answered = append(answered, a)
	}
	next := uint64(1)
	for _, o := range r.setupOps {
		if _, fresh := admissionSeq(o); fresh {
			next++
		}
	}
	heads := make([]int, len(answered))
	var all []*op
	for {
		best, blocked := -1, -1
		for c, a := range answered {
			if heads[c] == len(a) {
				continue
			}
			o := a[heads[c]]
			if seq, fresh := admissionSeq(o); fresh && seq != next {
				blocked = c
				continue
			}
			if best < 0 || o.recv < answered[best][heads[best]].recv {
				best = c
			}
		}
		if best < 0 {
			best = blocked // only out-of-order admissions left
		}
		if best < 0 {
			return all
		}
		o := answered[best][heads[best]]
		if _, fresh := admissionSeq(o); fresh {
			next++
		}
		all = append(all, o)
		heads[best]++
	}
}

// admissionSeq returns the registry Seq of a fresh admission's answer.
func admissionSeq(o *op) (uint64, bool) {
	if o.label != "submit" || !o.ok() {
		return 0, false
	}
	resp, err := controlplane.DecodeResponse(o.resp)
	if err != nil || resp.Submit == nil || resp.Submit.Resubmitted {
		return 0, false
	}
	return resp.Submit.Seq, true
}
