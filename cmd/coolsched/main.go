// Command coolsched computes an activation schedule for a synthetic
// deployment and prints it together with its utility and optimality
// bracket.
//
// Usage:
//
//	coolsched -n 100 -m 20 -rho 3 -algo greedy
//	coolsched -n 10 -m 2 -algo exact -show
//	coolsched -n 50 -m 10 -algo lp
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"cool"
)

// algorithms maps the -algo names that run a facade planning engine;
// every other name is a Baseline.
var algorithms = map[string]cool.Algorithm{
	"greedy": cool.AlgorithmGreedy,
	"lazy":   cool.AlgorithmLazyGreedy,
	"exact":  cool.AlgorithmExact,
	"lp":     cool.AlgorithmLPRound,
	"lp-det": cool.AlgorithmLPRoundDeterministic,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "coolsched:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("coolsched", flag.ContinueOnError)
	var (
		n      = fs.Int("n", 100, "number of sensors")
		m      = fs.Int("m", 10, "number of targets")
		field  = fs.Float64("field", 500, "square field side length")
		radius = fs.Float64("range", 100, "sensing radius")
		p      = fs.Float64("p", 0.4, "per-sensor detection probability")
		rho    = fs.Float64("rho", 3, "charging ratio Tr/Td (integral, or inverse-integral)")
		algo   = fs.String("algo", "greedy", "algorithm: greedy|lazy|exact|lp|lp-det|random|round-robin|first-slot|sorted-stride")
		seed   = fs.Uint64("seed", 1, "random seed (deployment and randomized algorithms)")
		show   = fs.Bool("show", false, "print the full slot assignment")
		save   = fs.String("save", "", "write the schedule as JSON to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	net, err := cool.Deploy(cool.DeployConfig{
		Field:   cool.NewField(*field),
		Sensors: *n,
		Targets: *m,
		Range:   *radius,
	}, *seed)
	if err != nil {
		return err
	}
	util, err := cool.NewDetectionUtility(net, cool.FixedProb(*p))
	if err != nil {
		return err
	}
	period, err := cool.PeriodFromRho(*rho)
	if err != nil {
		return err
	}
	planner, err := cool.NewPlanner(util, period)
	if err != nil {
		return err
	}

	var sched *cool.Schedule
	var lpBound float64
	if alg, ok := algorithms[*algo]; ok {
		algPlanner := planner
		if alg == cool.AlgorithmLPRound || alg == cool.AlgorithmLPRoundDeterministic {
			// LP rounding plans the target-count coverage surrogate.
			cov, err := cool.NewTargetCountUtility(net)
			if err != nil {
				return err
			}
			if algPlanner, err = cool.NewPlanner(cov, period); err != nil {
				return err
			}
		}
		res, err := algPlanner.Plan(cool.PlanRequest{Algorithm: alg, Seed: *seed})
		if err != nil {
			return err
		}
		sched, lpBound = res.Schedule, res.LPBound
	} else if sched, err = planner.Baseline(*algo, *seed); err != nil {
		return err
	}

	uncovered := net.UncoveredTargets()
	fmt.Fprintf(out, "deployment: n=%d m=%d field=%.0f range=%.0f (uncoverable targets: %d)\n",
		*n, *m, *field, *radius, len(uncovered))
	fmt.Fprintf(out, "period: T=%d slots (rho=%.3f, mode=%v)\n", period.Slots(), period.Rho(), sched.Mode())
	fmt.Fprintf(out, "algorithm: %s\n", *algo)
	fmt.Fprintf(out, "period utility: %.6f\n", planner.PeriodUtility(sched))
	fmt.Fprintf(out, "average utility per target per slot: %.6f\n", planner.AverageUtility(sched, *m))
	if lpBound > 0 {
		fmt.Fprintf(out, "LP upper bound (coverage surrogate): %.6f\n", lpBound)
	}
	if lower, upper, err := planner.Bracket(); err == nil {
		fmt.Fprintf(out, "optimal period utility bracket: [%.6f, %.6f]\n", lower, upper)
	}
	fmt.Fprintf(out, "slot sizes: %v\n", sched.SlotSizes())
	if *show {
		fmt.Fprintln(out, "assignment (sensor -> slot; removal mode lists the passive slot):")
		for v, slot := range sched.Assignment() {
			fmt.Fprintf(out, "  %4d -> %d\n", v, slot)
		}
	}
	if *save != "" {
		data, err := json.MarshalIndent(sched, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*save, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "schedule saved to %s\n", *save)
	}
	return nil
}
