// Command coolbench regenerates the paper's evaluation figures
// (Figures 7, 8, 9) and the library's ablation studies, printing
// aligned text tables and optionally writing CSV files.
//
// Usage:
//
//	coolbench -fig all
//	coolbench -fig 8 -quick
//	coolbench -fig 9 -out results/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"cool/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "coolbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("coolbench", flag.ContinueOnError)
	var (
		fig     = fs.String("fig", "all", "experiment: 7|8|9|ablation|random|sensitivity|extensions|shard|replan|lifetime|all")
		outDir  = fs.String("out", "", "directory for CSV output (omit to skip CSV)")
		quick   = fs.Bool("quick", false, "reduced sweeps for a fast smoke run")
		chart   = fs.Bool("chart", false, "also render ASCII charts")
		seed    = fs.Uint64("seed", 1, "random seed")
		workers = fs.Int("workers", 0, "worker goroutines for parallel sweeps (<=0 selects NumCPU)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	figs, benches, err := collect(*fig, *quick, *seed, *workers)
	if err != nil {
		return err
	}
	for _, f := range figs {
		if err := f.Render(out); err != nil {
			return err
		}
		if *chart {
			if err := f.RenderChart(out, 64, 16); err != nil {
				return err
			}
		}
		fmt.Fprintln(out)
		if *outDir != "" {
			if err := writeCSV(*outDir, f); err != nil {
				return err
			}
		}
	}
	for _, b := range benches {
		path := fmt.Sprintf("BENCH_%s.json", b.name)
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			path = filepath.Join(*outDir, path)
		}
		data, err := json.MarshalIndent(b.data, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", path)
	}
	return nil
}

// benchOutput pairs a machine-readable benchmark result with the file
// stem it is persisted under (BENCH_<name>.json).
type benchOutput struct {
	name string
	data any
}

func collect(which string, quick bool, seed uint64, workers int) ([]*experiments.Figure, []benchOutput, error) {
	var out []*experiments.Figure
	var benches []benchOutput
	add := func(f *experiments.Figure, err error) error {
		if err != nil {
			return err
		}
		out = append(out, f)
		return nil
	}
	want := func(k string) bool { return which == "all" || which == k }

	if want("7") {
		cfg := experiments.Fig7Config{Seed: seed, Workers: workers}
		if quick {
			cfg.Interval = 15 * time.Minute
		}
		if err := add(experiments.Fig7(cfg)); err != nil {
			return nil, nil, err
		}
	}
	if want("8") {
		cfg := experiments.Fig8Config{Seed: seed, SimulateDays: 30, ExactUpTo: 0, Workers: workers}
		if quick {
			cfg.SensorCounts = []int{20, 60, 100}
			cfg.SimulateDays = 5
		}
		figs, err := experiments.Fig8All(cfg)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, figs...)
	}
	if want("9") {
		cfg := experiments.Fig9Config{Seed: seed, Workers: workers}
		if quick {
			cfg.SensorCounts = []int{100, 300}
			cfg.TargetCounts = []int{10, 30, 50}
			cfg.Repeats = 1
		}
		if err := add(experiments.Fig9(cfg)); err != nil {
			return nil, nil, err
		}
	}
	if want("ablation") {
		cfg := experiments.AblationConfig{Seed: seed, Workers: workers}
		if quick {
			cfg.Sensors, cfg.Targets = 60, 10
		}
		if err := add(experiments.AblationPolicies(cfg)); err != nil {
			return nil, nil, err
		}
		if err := add(experiments.AblationRho(cfg)); err != nil {
			return nil, nil, err
		}
		if err := add(experiments.AblationLazy(cfg)); err != nil {
			return nil, nil, err
		}
	}
	if want("random") {
		cfg := experiments.AblationConfig{Seed: seed, Workers: workers}
		if quick {
			cfg.Sensors, cfg.Targets = 60, 10
		}
		if err := add(experiments.RandomChargingExperiment(cfg)); err != nil {
			return nil, nil, err
		}
	}
	if want("sensitivity") {
		cfg := experiments.AblationConfig{Seed: seed, Workers: workers}
		if quick {
			cfg.Sensors, cfg.Targets = 40, 6
		} else {
			cfg.Sensors, cfg.Targets = 120, 15
		}
		if err := add(experiments.SensitivityP(cfg)); err != nil {
			return nil, nil, err
		}
		if err := add(experiments.SensitivityRange(cfg)); err != nil {
			return nil, nil, err
		}
	}
	if want("extensions") {
		cfg := experiments.AblationConfig{Seed: seed, Workers: workers}
		if quick {
			cfg.Sensors, cfg.Targets = 30, 5
		} else {
			cfg.Sensors, cfg.Targets = 60, 10
		}
		if err := add(experiments.AblationHetero(cfg)); err != nil {
			return nil, nil, err
		}
		if err := add(experiments.AblationAdaptive(cfg)); err != nil {
			return nil, nil, err
		}
		if err := add(experiments.ClosedLoopExperiment(cfg)); err != nil {
			return nil, nil, err
		}
	}
	if want("shard") {
		cfg := experiments.ShardConfig{Seed: seed, Workers: workers}
		if quick {
			cfg.PlanSizes = []int{1200}
			cfg.PlanKs = []int{1, 2, 4}
			cfg.BigSensors = -1
			cfg.NetNodes = 2000
			cfg.NetKs = []int{1, 4}
			cfg.NetTicks = 2
		}
		f, res, err := experiments.ShardBench(cfg)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, f)
		benches = append(benches, benchOutput{name: "shard", data: res})
	}
	if want("replan") {
		cfg := experiments.ReplanConfig{Seed: seed}
		if quick {
			cfg.Sizes = []int{1000}
			cfg.PertFracs = []float64{0, 0.01}
			cfg.Iters = 1
		}
		f, res, err := experiments.ReplanBench(cfg)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, f)
		benches = append(benches, benchOutput{name: "replan", data: res})
	}
	if want("lifetime") {
		cfg := experiments.LifetimeConfig{Seed: seed}
		if quick {
			cfg.Sensors, cfg.Targets = 8, 5
			cfg.ScaleUp = 4
			cfg.Horizon = 8
		}
		f, res, err := experiments.LifetimeBench(cfg)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, f)
		benches = append(benches, benchOutput{name: "lifetime", data: res})
	}
	if len(out) == 0 {
		return nil, nil, fmt.Errorf("unknown experiment %q (want 7|8|9|ablation|random|sensitivity|extensions|shard|replan|lifetime|all)", which)
	}
	return out, benches, nil
}

func writeCSV(dir string, f *experiments.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, f.ID+".csv")
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	defer file.Close()
	if err := f.WriteCSV(file); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return file.Sync()
}
