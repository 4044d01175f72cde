package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunDeterministic(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "20", "-m", "4", "-days", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"total utility:", "average utility", "denied activations", "mean active"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunPolicies(t *testing.T) {
	for _, policy := range []string{"lazy", "all-ready", "random", "round-robin"} {
		var buf bytes.Buffer
		if err := run([]string{"-n", "15", "-m", "3", "-days", "1", "-policy", policy}, &buf); err != nil {
			t.Errorf("policy %s: %v", policy, err)
		}
	}
}

func TestRunRandomCharging(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-n", "15", "-m", "3", "-days", "1",
		"-charging", "random", "-event-rate", "0.5", "-event-duration", "2",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "charging=random") {
		t.Error("missing charging mode in output")
	}
}

func TestRunRadioDissemination(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-n", "25", "-m", "4", "-days", "1",
		"-radio", "-radio-loss", "0.2",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "schedule disseminated to 25 nodes") {
		t.Errorf("missing dissemination report:\n%s", out)
	}
	if !strings.Contains(out, "total utility:") {
		t.Errorf("simulation did not run after dissemination:\n%s", out)
	}
	// Deterministic given the seed: a second run reports identically.
	var again bytes.Buffer
	if err := run([]string{
		"-n", "25", "-m", "4", "-days", "1",
		"-radio", "-radio-loss", "0.2",
	}, &again); err != nil {
		t.Fatal(err)
	}
	if buf.String() != again.String() {
		t.Error("radio run not deterministic")
	}
}

func TestRunRadioErrors(t *testing.T) {
	// all-ready has no schedule to disseminate.
	var buf bytes.Buffer
	if err := run([]string{"-n", "15", "-m", "3", "-days", "1", "-policy", "all-ready", "-radio"}, &buf); err == nil {
		t.Error("-radio with all-ready accepted")
	}
	// A tiny radio range leaves the deployment disconnected.
	if err := run([]string{"-n", "15", "-m", "3", "-days", "1", "-radio", "-radio-range", "1"}, &buf); err == nil {
		t.Error("disconnected radio accepted")
	}
	// Invalid loss is rejected by the netsim config validation.
	if err := run([]string{"-n", "15", "-m", "3", "-days", "1", "-radio", "-radio-loss", "1"}, &buf); err == nil {
		t.Error("loss=1 accepted")
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-days", "0"},
		{"-charging", "nope"},
		{"-policy", "nope"},
		{"-rho", "2.5"},
		{"-unknown"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunClosedLoopMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-loop", "-n", "12", "-m", "3", "-days", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"window", "replanned", "run average:"} {
		if !strings.Contains(out, want) {
			t.Errorf("closed-loop output missing %q:\n%s", want, out)
		}
	}
}

func TestRunParallelPolicyMatchesGreedy(t *testing.T) {
	var seq, par bytes.Buffer
	if err := run([]string{"-n", "20", "-m", "4", "-days", "1"}, &seq); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "20", "-m", "4", "-days", "1", "-policy", "parallel", "-workers", "4"}, &par); err != nil {
		t.Fatal(err)
	}
	// The parallel policy plans through the greedy engine, so the
	// simulated outcome must match line for line (modulo the policy
	// name).
	sq := strings.Replace(seq.String(), "policy=greedy", "", 1)
	pr := strings.Replace(par.String(), "policy=parallel", "", 1)
	if sq != pr {
		t.Errorf("parallel policy diverged:\n%s\nvs\n%s", seq.String(), par.String())
	}
}

// TestRunShardedPolicies checks that -shards accepts every policy a
// facade engine plans — all three plan the same strips with the same
// engine, so the output matches line for line modulo the policy name —
// and rejects the others.
func TestRunShardedPolicies(t *testing.T) {
	var want string
	for _, policy := range []string{"greedy", "lazy", "parallel"} {
		var buf bytes.Buffer
		if err := run([]string{"-n", "40", "-m", "6", "-days", "1", "-shards", "2", "-policy", policy}, &buf); err != nil {
			t.Fatalf("policy %s: %v", policy, err)
		}
		if !strings.Contains(buf.String(), "sharded plan:") {
			t.Fatalf("policy %s: missing sharded plan report:\n%s", policy, buf.String())
		}
		got := strings.Replace(buf.String(), "policy="+policy, "", 1)
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("policy %s diverged from greedy:\n%s\nvs\n%s", policy, got, want)
		}
	}
	err := run([]string{"-n", "40", "-m", "6", "-days", "1", "-shards", "2", "-policy", "round-robin"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-shards requires") {
		t.Errorf("-shards with round-robin: got %v, want a -shards policy error", err)
	}
}

func TestRunMonteCarloReps(t *testing.T) {
	var a, b bytes.Buffer
	args := []string{
		"-n", "15", "-m", "3", "-days", "1",
		"-charging", "random", "-reps", "4",
	}
	if err := run(append(append([]string{}, args...), "-workers", "1"), &a); err != nil {
		t.Fatal(err)
	}
	if err := run(append(append([]string{}, args...), "-workers", "3"), &b); err != nil {
		t.Fatal(err)
	}
	// The summary reports the effective worker count, which legitimately
	// differs; every result line must be identical.
	sq := strings.Replace(a.String(), "workers=1", "workers=N", 1)
	pr := strings.Replace(b.String(), "workers=3", "workers=N", 1)
	if sq != pr {
		t.Errorf("Monte-Carlo output depends on worker count:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), "workers=1") {
		t.Errorf("summary does not report the effective worker count:\n%s", a.String())
	}
	for _, want := range []string{"4 replications", "95% CI", "std", "denied activations"} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("output missing %q:\n%s", want, a.String())
		}
	}
}

func TestRunLifetimeMode(t *testing.T) {
	for _, alg := range []string{"hef", "strip-cover"} {
		var buf bytes.Buffer
		err := run([]string{
			"-n", "25", "-m", "5", "-field", "200", "-range", "80",
			"-lifetime", alg, "-battery", "2",
		}, &buf)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		out := buf.String()
		for _, want := range []string{"lifetime objective", "algorithm=" + alg, "sustained coverage for"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s output missing %q:\n%s", alg, want, out)
			}
		}
	}
	var buf bytes.Buffer
	err := run([]string{
		"-n", "6", "-m", "2", "-field", "200", "-range", "150",
		"-lifetime", "lifetime-exact", "-battery", "2", "-horizon", "6", "-k", "2",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "k=2") {
		t.Errorf("exact k=2 output wrong:\n%s", buf.String())
	}
	if err := run([]string{"-n", "10", "-m", "2", "-lifetime", "warp-drive"}, &buf); err == nil {
		t.Error("unknown lifetime algorithm accepted")
	}
}
