package main

import (
	"fmt"
	"time"
)

// Validity rule: a run whose generator started its sends late by more
// than maxLagShare50 of a median latency it reports (lag p50 against
// each of fedMedians), or by more than maxLagShare99 of the tail it
// reports (lag p99 against fedTail), measured the generator rather
// than coold and is invalid.
const (
	maxLagShare50 = 0.25
	maxLagShare99 = 0.50
)

// pushLimitMs is the push p99 a ladder rung must keep to count toward
// replan_capacity_rps.
const pushLimitMs = 50.0

var (
	fedMedians = map[string][]string{
		wReplanWatch: {"push_p50_ms", "replan_p50_ms"},
		wPoll:        {"query_p50_ms", "replan_p50_ms"},
		wOnboard:     {"onboard_p50_ms", "submit_p50_ms"},
	}
	fedTail = map[string]string{
		wReplanWatch: "push_p99_ms",
		wPoll:        "query_p99_ms",
		wOnboard:     "onboard_p95_ms",
	}
)

// latencies collects the due-to-answer latency (ms) of the answered,
// successful ops that match.
func latencies(ops []*op, keep func(*op) bool) sample {
	var s sample
	for _, o := range ops {
		if o.ok() && keep(o) {
			s = append(s, ms(o.latency()))
		}
	}
	return s
}

// metrics derives every end-to-end metric of the run from the
// recorded ops, pushes and process counters.
func (r *run) metrics() {
	completed := 0
	fixed, _ := r.ladderLayout()
	var lag sample
	for _, s := range r.streams {
		for _, o := range s {
			if o.answered() && (r.workload != wReplanWatch || o.recv < fixed) {
				completed++
			}
			if o.sent >= 0 && (o.phase == "fixed" || o.phase == "timed") {
				lag = append(lag, ms(o.lag))
			}
		}
	}
	r.rep.set("cpu_ms_per_op", "ms", ms(r.daemonCPU)/float64(max(completed, 1)), completed, "")
	r.rep.set("loadgen.lag_p50_ms", "ms", lag.quantile(0.5), len(lag), "")
	r.rep.set("loadgen.lag_p99_ms", "ms", lag.quantile(0.99), len(lag), "")
	r.rep.set("loadgen.cpu_share", "share", float64(r.selfCPU)/float64(r.elapsed), 0, "")
	r.rep.set("timed_s", "s", r.elapsed.Seconds(), 0, "")

	switch r.workload {
	case wReplanWatch:
		r.replanWatchMetrics()
	case wPoll:
		ops := append(append([]*op(nil), r.streams[0]...), r.streams[1]...)
		q := latencies(ops, func(o *op) bool { return o.label == "query-schedule" })
		r.rep.pct("query_p50_ms", q, 0.5)
		r.rep.pct("query_p99_ms", q, 0.99)
		rp := latencies(ops, func(o *op) bool { return o.label == "replan" })
		r.rep.pct("replan_p50_ms", rp, 0.5)
	case wOnboard:
		sub := latencies(r.streams[0], func(o *op) bool { return o.label == "submit" })
		r.rep.pct("submit_p50_ms", sub, 0.5)
		on := latencies(r.streams[0], func(o *op) bool { return o.label == "plan" })
		r.rep.pct("onboard_p50_ms", on, 0.5)
		r.rep.pct("onboard_p95_ms", on, 0.95)
		large := latencies(r.streams[1], func(o *op) bool { return o.label == "plan" })
		r.rep.pct("onboard_large_p50_ms", large, 0.5)
	}
}

// pushLatencies maps each acknowledged replan of a phase to the push
// carrying its Seq and returns the due-to-push latencies (ms).
func (r *run) pushLatencies(keep func(*op) bool) sample {
	bySeq := make([]map[uint64]time.Duration, len(r.deps))
	for dep, d := range r.deps {
		bySeq[dep] = make(map[uint64]time.Duration)
		for _, p := range r.watch.pushes[d.fp] {
			bySeq[dep][p.seq] = p.recv
		}
	}
	next := make([]uint64, len(r.deps))
	var s sample
	for _, o := range r.streams[0] {
		if o.label != "replan" || !o.ok() {
			continue
		}
		next[o.dep]++
		recv, ok := bySeq[o.dep][r.events0[o.dep]+next[o.dep]]
		if ok && keep(o) {
			s = append(s, ms(recv-o.due))
		}
	}
	return s
}

// replanWatchMetrics reports the fixed-rate phase and walks the
// ladder: a rung passes when its push p99 stays within the limit and
// the outstanding backlog does not grow across it; the capacity is the
// throughput achieved at the highest rung below which every rung
// passed.
func (r *run) replanWatchMetrics() {
	ops := r.streams[0]
	inPhase := func(ph string) func(*op) bool {
		return func(o *op) bool { return o.phase == ph }
	}
	rp := latencies(ops, func(o *op) bool { return o.label == "replan" && o.phase == "fixed" })
	r.rep.pct("replan_p50_ms", rp, 0.5)
	r.rep.pct("replan_p99_ms", rp, 0.99)
	pu := r.pushLatencies(inPhase("fixed"))
	r.rep.pct("push_p50_ms", pu, 0.5)
	r.rep.pct("push_p99_ms", pu, 0.99)

	backlog := func(at time.Duration) int {
		n := 0
		for _, o := range ops {
			if o.sent >= 0 && o.sent <= at && (o.recv <= 0 || o.recv > at) {
				n++
			}
		}
		return n
	}
	fixed, spans := r.ladderLayout()
	capacity := r.throughput(ops, 0, fixed)
	capNote := "fixed-rate phase"
	from := fixed
	passing := true
	for i, span := range spans {
		ph := phaseRung(i)
		p99 := r.pushLatencies(inPhase(ph)).quantile(0.99)
		b0, b1 := backlog(from), backlog(from+span)
		grew := b1 > b0+max(2, int(0.02*r.sc.ladder[i]))
		ok := p99 <= pushLimitMs && !grew
		got := r.throughput(ops, from, span)
		var lag sample
		for _, o := range ops {
			if o.phase == ph && o.sent >= 0 {
				lag = append(lag, ms(o.lag))
			}
		}
		r.rep.logf("ladder rung=%d offered_rps=%.0f achieved_rps=%.1f push_p99_ms=%.3f backlog_start=%d backlog_end=%d lag_p99_ms=%.3f pass=%v",
			i, r.sc.ladder[i], got, p99, b0, b1, lag.quantile(0.99), ok)
		if passing && ok {
			capacity, capNote = got, fmt.Sprintf("rung %d, offered %.0f req/s", i, r.sc.ladder[i])
		}
		passing = passing && ok
		from += span
	}
	r.rep.set("replan_capacity_rps", "req/s", capacity, 0,
		fmt.Sprintf("%s; push p99 limit %g ms", capNote, pushLimitMs))
}

// throughput is the rate of answers received in [from, from+span).
func (r *run) throughput(ops []*op, from, span time.Duration) float64 {
	n := 0
	for _, o := range ops {
		if o.answered() && o.recv >= from && o.recv < from+span {
			n++
		}
	}
	return float64(n) / span.Seconds()
}

// validity reports why a run's numbers are not measurements, or "".
func (r *run) validity() string {
	check := func(lagName, name string, share float64) string {
		lag, _ := r.rep.get(lagName)
		m, _ := r.rep.get(name)
		if lag.Value > share*m.Value {
			return fmt.Sprintf("generator %s %.3f ms exceeds %.0f%% of %s %.3f ms",
				lagName, lag.Value, 100*share, name, m.Value)
		}
		return ""
	}
	for _, name := range fedMedians[r.workload] {
		if why := check("loadgen.lag_p50_ms", name, maxLagShare50); why != "" {
			return why
		}
	}
	return check("loadgen.lag_p99_ms", fedTail[r.workload], maxLagShare99)
}
