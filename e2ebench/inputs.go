package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"cool"
	"cool/internal/controlplane"
	"cool/internal/stats"
)

// Field geometry shared by every deployment: the BENCH_replan field,
// a 1000×1000 square with mean coverage degree 10 (the sensing range
// is solved from degree = π·r²·n/|Ω|) and m = n/10 targets.
const (
	fieldSide    = 1000
	meanDegree   = 10
	detectProb   = 0.4 // the paper's per-link detection probability
	maxDeadShare = 0.01
)

// depSpec is one generated deployment: the spec as sent, and the
// identity coold must derive from it.
type depSpec struct {
	tenant string
	name   string
	spec   controlplane.DeploymentSpec
	fp     string // Fingerprint(Normalize(spec))
}

func sensingRange(n int) float64 {
	return math.Sqrt(meanDegree * fieldSide * fieldSide / (math.Pi * float64(n)))
}

// genSpec deploys n uniform sensors and n/10 targets from seed.
func genSpec(tenant, name string, n int, rho float64, detection bool, seed uint64) (*depSpec, error) {
	net, err := cool.Deploy(cool.DeployConfig{
		Field:   cool.NewField(fieldSide),
		Sensors: n,
		Targets: n / 10,
		Range:   sensingRange(n),
		Layout:  cool.LayoutUniform,
	}, seed)
	if err != nil {
		return nil, err
	}
	spec := controlplane.DeploymentSpec{Rho: rho}
	if detection {
		spec.Utility = controlplane.UtilityDetection
		spec.DetectProb = detectProb
	}
	for _, s := range net.Sensors() {
		spec.Sensors = append(spec.Sensors, controlplane.SensorSpec{X: s.Pos.X, Y: s.Pos.Y, Range: s.Range})
	}
	for _, t := range net.Targets() {
		spec.Targets = append(spec.Targets, controlplane.TargetSpec{X: t.Pos.X, Y: t.Pos.Y})
	}
	norm, err := controlplane.Normalize(spec)
	if err != nil {
		return nil, err
	}
	fp, err := controlplane.Fingerprint(norm)
	if err != nil {
		return nil, err
	}
	return &depSpec{tenant: tenant, name: name, spec: spec, fp: fp}, nil
}

// op is one pre-encoded request of a stream and, after the run, what
// came back for it. Times are offsets from the stream's start.
type op struct {
	label string // accounting name: submit, plan, replan, query-schedule, …
	phase string
	dep   int // index into the workload's deployments (-1: none)
	conn  int // index of the connection that carries it
	due   time.Duration
	frame []byte
	// replan perturbation
	kill bool
	ids  []int

	sent, recv time.Duration // sent < 0: never sent
	// lag is how late the generator started the send: after the due
	// time and after its previous write returned, so time blocked by
	// TCP flow control (coold not reading) is not charged to it.
	lag  time.Duration
	code string // "" when answered with a response
	resp []byte // the answer payload, when kept
	// client-side spans (traced runs)
	write, wait, read, decode time.Duration
	encode                    time.Duration
}

func (o *op) answered() bool { return o.sent >= 0 && o.recv > 0 }
func (o *op) ok() bool       { return o.answered() && o.code == "" }
func (o *op) latency() time.Duration {
	return o.recv - o.due
}

// newOp encodes a request frame, timing the encode span.
func newOp(label, phase string, dep int, due time.Duration, req *controlplane.Request) (*op, error) {
	t0 := time.Now()
	frame, err := encodeRequest(req)
	if err != nil {
		return nil, fmt.Errorf("encoding %s: %w", label, err)
	}
	return &op{label: label, phase: phase, dep: dep, due: due, frame: frame,
		encode: time.Since(t0), sent: -1}, nil
}

// arrivals draws the arrival times of a Poisson process of the given
// rate on [from, from+dur), conditioned on its expected count: that
// many uniform times, sorted. Fixing the count keeps the offered work
// equal across seeds while the arrivals stay Poisson-spaced.
func arrivals(rng *stats.RNG, rate float64, from, dur time.Duration) []time.Duration {
	n := int(math.Round(rate * dur.Seconds()))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = from + time.Duration(rng.Float64()*float64(dur))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// fleet tracks one deployment's live sensors while a kill/deploy
// sequence is generated, so every generated replan is valid: kills hit
// live sensors, deploys bring back the oldest killed ones, and at most
// maxDeadShare of the fleet is dead at once.
type fleet struct {
	n    int
	dead map[int]bool
	fifo []int
}

func newFleet(n int) *fleet { return &fleet{n: n, dead: make(map[int]bool)} }

// next draws one perturbation of 1–4 sensors.
func (f *fleet) next(rng *stats.RNG) (kill bool, ids []int) {
	k := 1 + rng.Intn(4)
	maxDead := int(maxDeadShare * float64(f.n))
	switch {
	case len(f.fifo) == 0:
		kill = true
	case len(f.fifo)+k > maxDead:
		kill = false
	default:
		kill = rng.Float64() < 0.5
	}
	if kill {
		for len(ids) < k {
			v := rng.Intn(f.n)
			if !f.dead[v] {
				f.dead[v] = true
				f.fifo = append(f.fifo, v)
				ids = append(ids, v)
			}
		}
		return true, ids
	}
	if k > len(f.fifo) {
		k = len(f.fifo)
	}
	ids = append(ids, f.fifo[:k]...)
	f.fifo = f.fifo[k:]
	for _, v := range ids {
		delete(f.dead, v)
	}
	return false, ids
}

func replanOp(phase string, dep int, due time.Duration, d *depSpec, kill bool, ids []int) (*op, error) {
	rop := controlplane.ReplanDeploy
	if kill {
		rop = controlplane.ReplanKill
	}
	o, err := newOp("replan", phase, dep, due, &controlplane.Request{Op: controlplane.OpReplan, Tenant: d.tenant,
		Replan: &controlplane.ReplanRequest{Fingerprint: d.fp, Op: rop, IDs: ids}})
	if err != nil {
		return nil, err
	}
	o.kill, o.ids = kill, ids
	return o, nil
}

func queryOp(what, phase string, dep int, due time.Duration, d *depSpec) (*op, error) {
	return newOp("query-"+what, phase, dep, due, &controlplane.Request{Op: controlplane.OpQuery, Tenant: d.tenant,
		Query: &controlplane.QueryRequest{Fingerprint: d.fp, What: what}})
}

func submitOp(phase string, dep int, due time.Duration, d *depSpec) (*op, error) {
	return newOp("submit", phase, dep, due, &controlplane.Request{Op: controlplane.OpSubmit, Tenant: d.tenant,
		Submit: &controlplane.SubmitRequest{Name: d.name, Spec: d.spec}})
}

func planOp(phase string, dep int, due time.Duration, d *depSpec) (*op, error) {
	return newOp("plan", phase, dep, due, &controlplane.Request{Op: controlplane.OpPlan, Tenant: d.tenant,
		Plan: &controlplane.PlanRequest{Fingerprint: d.fp}})
}

func watchOp(phase string, dep int, d *depSpec) (*op, error) {
	return newOp("watch", phase, dep, 0, &controlplane.Request{Op: controlplane.OpWatch, Tenant: d.tenant,
		Watch: &controlplane.WatchRequest{Fingerprint: d.fp, Op: controlplane.WatchSubscribe}})
}

func listOp(phase string, due time.Duration, tenant string) (*op, error) {
	return newOp("list", phase, -1, due, &controlplane.Request{Op: controlplane.OpList, Tenant: tenant,
		List: &controlplane.ListRequest{}})
}
