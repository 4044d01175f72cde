// Command e2ebench is the end-to-end benchmark of coold. It builds
// cmd/coold from the tree, launches it the way production runs it (a
// fresh -data-dir, every other flag at its default, a loopback port
// read from the "listening on" log line) and drives it over TCP from
// this one process with an open-loop, seeded arrival schedule whose
// every request is generated and encoded before coold starts. After
// the timed phase it verifies coold's answers against direct library
// calls and prints every metric by name and unit; the last line of
// standard output is a JSON summary.
//
//	go run . -workload replan-watch -seed 1 -seconds 20 -trace 0
//
// Workloads: replan-watch (pipelined kill/deploy replans with a
// watcher receiving every repaired schedule, then a rate ladder that
// finds the capacity), poll (two connections polling schedules) and
// onboard (durable submit+plan of small and large deployments, then a
// SIGKILL and relaunch). -trace 1 runs the workload untraced, then
// traced with client-side spans, then replays the acknowledged request
// stream in-process through each layer's public functions and prints
// the per-layer breakdown. -repeat N prints each metric's median and
// quartiles over N seeds; -selftest runs every workload on tiny
// fleets and checks the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// endToEnd lists the metrics a --trace 0 run summarises in its JSON
// line, each defined on every workload; BENCHMARK.json gives their
// regression bounds, which apply to every workload. They are the
// end-to-end metrics whose ten-seed spread stayed inside the largest
// bound a regression gate can use on all three workloads of a small
// shared host; the latencies, peak memory and recovery times, whose
// spread exceeded it on at least one workload, are in named (see
// BASELINE.md).
var endToEnd = []string{"setup_s", "cpu_ms_per_op", "rss_mean_mb"}

// named lists the other end-to-end metrics every run prints in its
// report, by workload.
var named = map[string][]string{
	wReplanWatch: {"replan_p50_ms", "replan_p99_ms", "push_p50_ms", "push_p99_ms", "replan_capacity_rps",
		"rss_peak_mb", "rss_end_mb", "recover_s"},
	wPoll: {"query_p50_ms", "query_p99_ms", "replan_p50_ms", "rss_peak_mb", "rss_end_mb", "recover_s"},
	wOnboard: {"submit_p50_ms", "onboard_p50_ms", "onboard_p95_ms", "onboard_large_p50_ms",
		"rss_peak_mb", "rss_end_mb", "recover_s"},
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	repeat   int
	selftest bool
	root     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", wReplanWatch, "workload: "+strings.Join(workloads, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.IntVar(&o.repeat, "repeat", 1, "run N seeds (seed, seed+1, …) and print medians and quartiles")
	flag.BoolVar(&o.selftest, "selftest", false, "run every workload on tiny fleets and check the output")
	flag.StringVar(&o.root, "root", "..", "repository root holding cmd/coold")
	flag.Parse()
	if err := realMain(o); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// env is where a benchmark process builds and works.
type env struct {
	root string
	bin  string // coold binary
	work string // per-process scratch directory
}

func realMain(o options) error {
	root, err := filepath.Abs(o.root)
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := env{root: root, bin: filepath.Join(work, "coold"), work: work}
	if err := buildCoold(root, e.bin); err != nil {
		return err
	}
	if o.selftest {
		return selftest(e)
	}
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	if !known || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) || o.repeat < 1 {
		return fmt.Errorf("bad arguments: workload %q seconds %v trace %d repeat %d", o.workload, o.seconds, o.trace, o.repeat)
	}
	if o.repeat > 1 {
		return repeat(e, o, fullScale)
	}
	res, err := benchOnce(e, o.workload, o.seed, o.seconds, o.trace == 1, fullScale)
	if err != nil {
		return err
	}
	fmt.Print(res.text)
	if res.invalid != "" {
		return fmt.Errorf("invalid run: %s", res.invalid)
	}
	line, err := res.summary()
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// result is one benchmark invocation's outcome.
type result struct {
	text      string
	rep       *report
	summaryOf []string // metric names the JSON summary carries
	attempted int
	failed    int
	invalid   string
}

// summary renders the last-line JSON object.
func (res *result) summary() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, name := range res.summaryOf {
		m, ok := res.rep.get(name)
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s was not measured", name)
		}
		out.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// benchOnce runs one workload once: untraced, or traced with the
// per-layer breakdown.
func benchOnce(e env, workload string, seed uint64, seconds float64, traced bool, sc scale) (*result, error) {
	if traced {
		return traceRun(e, workload, seed, seconds, sc)
	}
	r, err := newRun(workload, seed, seconds, sc, e.bin, e.work, false)
	if err != nil {
		return nil, err
	}
	defer r.cleanup()
	if err := r.execute(); err != nil {
		return nil, err
	}
	return r.result(endToEnd), nil
}

// result renders a finished run.
func (r *run) result(summaryOf []string) *result {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# e2ebench workload=%s seed=%d seconds=%g traced=%v\n", r.workload, r.seed, r.seconds, r.traced)
	for _, l := range r.tally.lines() {
		sb.WriteString(l + "\n")
	}
	r.rep.print(&sb)
	attempted, failed := r.tally.totals()
	res := &result{rep: r.rep, summaryOf: summaryOf, attempted: attempted, failed: failed, invalid: r.validity()}
	fmt.Fprintf(&sb, "ops total attempted=%d failed=%d\n", attempted, failed)
	if res.invalid != "" {
		fmt.Fprintf(&sb, "INVALID: %s\n", res.invalid)
	}
	res.text = sb.String()
	return res
}
