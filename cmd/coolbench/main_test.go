package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunQuickAblation(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "ablation", "-quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ablation-policies", "ablation-rho", "ablation-lazy"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunQuickFig7WritesCSV(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-fig", "7", "-quick", "-out", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig7.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "series,hour,value") {
		t.Errorf("CSV header wrong: %q", string(data[:40]))
	}
}

func TestRunQuickFig8(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "8", "-quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig8a", "fig8b", "fig8c", "fig8d", "upper-bound", "simulated-30day"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunQuickFig9(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "9", "-quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "n=300") {
		t.Error("fig9 curves missing")
	}
}

func TestRunQuickRandom(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "random", "-quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "random-charging") {
		t.Error("random charging figure missing")
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	// memlayout, grid, netsim, kernels and parallel are no longer
	// figures either.
	for _, fig := range []string{"nope", "memlayout", "grid", "netsim", "kernels", "parallel"} {
		if err := run([]string{"-fig", fig, "-quick"}, &buf); err == nil {
			t.Errorf("figure %q accepted", fig)
		}
	}
	if err := run([]string{"-badflag"}, &buf); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunQuickSensitivity(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "sensitivity", "-quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sensitivity-p", "sensitivity-range"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunQuickExtensions(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "extensions", "-quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ablation-hetero", "ablation-adaptive", "closed-loop"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunChartFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "sensitivity", "-quick", "-chart"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "+---") {
		t.Error("chart axis missing")
	}
}

func TestRunQuickFig9WorkersFlag(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"-fig", "9", "-quick", "-workers", "1"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-fig", "9", "-quick", "-workers", "4"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("fig9 output depends on -workers")
	}
}

func TestRunLifetimeBenchWritesJSON(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-fig", "lifetime", "-quick", "-out", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "lifetime-bench") {
		t.Errorf("output missing lifetime-bench figure:\n%s", buf.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_lifetime.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Groups []struct {
			Name                string           `json:"name"`
			ExactRan            bool             `json:"exact_ran"`
			SchedulesFeasible   bool             `json:"schedules_feasible"`
			ExactIsMax          bool             `json:"exact_is_max"`
			PlannersBeatUtility bool             `json:"planners_beat_utility"`
			Rows                []map[string]any `json:"rows"`
		} `json:"groups"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("BENCH_lifetime.json not valid JSON: %v", err)
	}
	if len(res.Groups) != 5 {
		t.Fatalf("quick lifetime bench has %d groups, want 5", len(res.Groups))
	}
	for _, g := range res.Groups {
		if !g.SchedulesFeasible || !g.ExactIsMax || !g.PlannersBeatUtility {
			t.Errorf("%s: verdicts %v/%v/%v, want all true",
				g.Name, g.SchedulesFeasible, g.ExactIsMax, g.PlannersBeatUtility)
		}
		if len(g.Rows) < 3 {
			t.Errorf("%s: only %d rows", g.Name, len(g.Rows))
		}
	}
}
