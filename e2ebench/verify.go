package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"cool"
	"cool/internal/controlplane"
	"cool/internal/stats"
)

// verify checks the run's answers against direct library calls, after
// the timed phase. Every mismatch counts as a failed operation.
func (r *run) verify() error {
	if r.workload == wOnboard {
		return r.verifyOnboard()
	}
	return r.verifySessions()
}

func (r *run) mismatch(op, format string, args ...any) {
	r.verifyFails++
	r.tally.add("verify", op, "mismatch")
	if r.verifyFails <= 10 {
		r.rep.logf("mismatch: "+format, args...)
	}
}

// directPlanner builds the planner coold builds for a spec.
func directPlanner(d *depSpec) (*cool.Planner, error) {
	norm, err := controlplane.Normalize(d.spec)
	if err != nil {
		return nil, err
	}
	return controlplane.BuildPlanner(norm)
}

// verifySessions replays each deployment's acknowledged kill/deploy
// sequence through a direct cool.Incremental. Every replan answer's
// repair stats and utility, every utility/status answer from the
// deployment's mutating connection, the final schedule (slot by slot)
// and utility (by bits) must match, and in replan-watch the watcher
// must have seen exactly one push per acknowledged replan, Seq
// gap-free, the last one carrying the final schedule.
func (r *run) verifySessions() error {
	for dep, d := range r.deps {
		p, err := directPlanner(d)
		if err != nil {
			return err
		}
		inc, err := p.Incremental()
		if err != nil {
			return err
		}
		if _, err := r.checkPlanAnswer(r.plans0[dep], inc, d.name+" set-up plan"); err != nil {
			return err
		}
		// The deployment's mutating connection: the only one in
		// replan-watch, the deployment's own one in poll.
		stream := r.streams[0]
		if r.workload == wPoll {
			stream = r.streams[dep]
		}
		acked := 0
		var last *controlplane.ReplanResponse
		for _, o := range stream {
			if o.dep != dep || !o.ok() {
				continue
			}
			switch o.label {
			case "replan":
				var st cool.RepairStats
				if o.kill {
					st, err = inc.KillSensors(o.ids)
				} else {
					st, err = inc.DeploySensors(o.ids)
				}
				if err != nil {
					return fmt.Errorf("direct replay of %s: %w", d.name, err)
				}
				resp, err := controlplane.DecodeResponse(o.resp)
				if err != nil || resp.Replan == nil {
					r.mismatch("replan", "%s: undecodable replan answer", d.name)
					continue
				}
				got := resp.Replan
				if got.Changed != st.Changed || got.Dirty != st.Dirty || got.Rounds != st.Rounds ||
					got.Moves != st.Moves || !sameBits(got.Utility, st.Utility) ||
					!sameBits(got.UtilityBefore, st.UtilityBefore) {
					r.mismatch("replan", "%s replan %d: got %+v, direct %+v", d.name, acked+1, *got, st)
				}
				acked++
				last = got
			case "query-utility":
				resp, err := controlplane.DecodeResponse(o.resp)
				if err != nil || resp.Query == nil || resp.Query.Utility == nil ||
					!sameBits(*resp.Query.Utility, inc.Utility()) {
					r.mismatch("query-utility", "%s: utility answer differs from direct replay", d.name)
				}
			case "query-status":
				resp, err := controlplane.DecodeResponse(o.resp)
				if err != nil || resp.Query == nil || resp.Query.Status == nil ||
					resp.Query.Status.Present != inc.NumPresent() {
					r.mismatch("query-status", "%s: status answer differs from direct replay", d.name)
				}
			}
		}
		want, err := inc.Schedule()
		if err != nil {
			return err
		}
		if err := r.checkFinal(dep, want.Assignment(), inc.Utility()); err != nil {
			return err
		}
		if r.watch != nil {
			r.checkPushes(dep, acked, last, want.Assignment())
		}
	}
	return nil
}

// checkPlanAnswer compares a plan answer with a direct session,
// reporting whether they match.
func (r *run) checkPlanAnswer(raw []byte, inc *cool.Incremental, what string) (bool, error) {
	want, err := inc.Schedule()
	if err != nil {
		return false, err
	}
	resp, err := controlplane.DecodeResponse(raw)
	if err != nil || resp.Plan == nil || resp.Plan.Schedule == nil {
		r.mismatch("plan", "%s: undecodable plan answer", what)
		return false, nil
	}
	if !sameBits(resp.Plan.Utility, inc.Utility()) || !sameAssign(resp.Plan.Schedule.Assignment(), want.Assignment()) {
		r.mismatch("plan", "%s: utility %v, direct %v", what, resp.Plan.Utility, inc.Utility())
		return false, nil
	}
	return true, nil
}

// checkFinal asks coold for a deployment's final schedule and utility.
func (r *run) checkFinal(dep int, want []int, utility float64) error {
	c := r.conns[0]
	c.setDeadline(answerTimeout)
	d := r.deps[dep]
	for _, what := range []string{controlplane.QuerySchedule, controlplane.QueryUtility} {
		o, err := queryOp(what, "verify", dep, 0, d)
		if err != nil {
			return err
		}
		resp, _, err := c.roundTrip(o.frame)
		if err != nil || resp.Query == nil {
			r.mismatch("final-"+what, "%s: final %s query failed: %v", d.name, what, err)
			continue
		}
		switch what {
		case controlplane.QuerySchedule:
			if resp.Query.Schedule == nil || !sameAssign(resp.Query.Schedule.Assignment(), want) {
				r.mismatch("final-schedule", "%s: final schedule differs from direct replay", d.name)
				continue
			}
		case controlplane.QueryUtility:
			if resp.Query.Utility == nil || !sameBits(*resp.Query.Utility, utility) {
				r.mismatch("final-utility", "%s: final utility differs from direct replay", d.name)
				continue
			}
		}
		r.tally.add("verify", "final-"+what, "")
	}
	return nil
}

// checkPushes checks the watcher's stream for one deployment.
func (r *run) checkPushes(dep, acked int, last *controlplane.ReplanResponse, want []int) {
	d := r.deps[dep]
	r.watch.mu.Lock()
	pushes := r.watch.pushes[d.fp]
	lastRaw := r.watch.last[d.fp]
	bad := r.watch.bad
	r.watch.mu.Unlock()
	if bad > 0 {
		r.mismatch("push", "watcher read %d frames that were not pushes", bad)
	}
	if len(pushes) != acked {
		r.mismatch("push", "%s: %d pushes for %d acknowledged replans", d.name, len(pushes), acked)
	}
	for i, p := range pushes {
		if p.seq != r.events0[dep]+uint64(i)+1 {
			r.mismatch("push", "%s: push %d has Seq %d, want %d", d.name, i, p.seq, r.events0[dep]+uint64(i)+1)
			break
		}
	}
	if acked == 0 {
		return
	}
	ev, err := controlplane.DecodeWatchEvent(lastRaw)
	if err != nil || ev.Replan == nil || ev.Replan.Schedule == nil {
		r.mismatch("push", "%s: undecodable last push", d.name)
		return
	}
	if !sameAssign(ev.Replan.Schedule.Assignment(), want) || !sameBits(ev.Replan.Utility, last.Utility) {
		r.mismatch("push", "%s: last push differs from the final schedule", d.name)
		return
	}
	r.tally.add("verify", "push", "")
}

// verifyOnboard checks every admission answer against
// Fingerprint(Normalize(spec)), every resubmit against its original,
// and a seeded sample of plans — every large one included — against
// direct Planner.Incremental calls.
func (r *run) verifyOnboard() error {
	first := make(map[int]*controlplane.SubmitResponse)
	plans := make(map[int][]byte)
	for _, s := range r.streams {
		for _, o := range s {
			if !o.ok() {
				continue
			}
			d := r.deps[o.dep]
			switch o.label {
			case "submit":
				resp, err := controlplane.DecodeResponse(o.resp)
				if err != nil || resp.Submit == nil || resp.Submit.Fingerprint != d.fp {
					r.mismatch("submit", "%s: fingerprint differs from Fingerprint(Normalize(spec))", d.name)
					continue
				}
				if orig, seen := first[o.dep]; seen {
					if !resp.Submit.Resubmitted || resp.Submit.Seq != orig.Seq {
						r.mismatch("submit", "%s: resubmit answered %+v, original %+v", d.name, *resp.Submit, *orig)
					}
				} else {
					if resp.Submit.Resubmitted {
						r.mismatch("submit", "%s: first submit reported as resubmitted", d.name)
					}
					first[o.dep] = resp.Submit
				}
			case "plan":
				if prev, seen := plans[o.dep]; seen {
					if !bytes.Equal(prev, o.resp) {
						r.mismatch("plan", "%s: plan after resubmit differs from the first plan", d.name)
					}
					continue
				}
				plans[o.dep] = o.resp
			}
		}
	}
	var small, large []int
	for dep := range plans {
		if r.deps[dep].tenant == "B" {
			large = append(large, dep)
		} else {
			small = append(small, dep)
		}
	}
	sort.Ints(small)
	sort.Ints(large)
	rng := stats.NewRNG(r.seed ^ 0x5bd1e995)
	rng.Shuffle(len(small), func(i, j int) { small[i], small[j] = small[j], small[i] })
	if len(small) > r.sc.sampleSmall {
		small = small[:r.sc.sampleSmall]
	}
	for _, dep := range append(small, large...) {
		p, err := directPlanner(r.deps[dep])
		if err != nil {
			return err
		}
		inc, err := p.Incremental()
		if err != nil {
			return err
		}
		ok, err := r.checkPlanAnswer(plans[dep], inc, r.deps[dep].name)
		if err != nil {
			return err
		}
		if ok {
			r.tally.add("verify", "plan", "")
		}
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameAssign(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
