// Heterogeneous fleet: the paper's second future-work item. Half the
// motes carry two solar panels (recharge ~2x faster => smaller ρ), and
// some sit in partial shade (slower). The heterogeneous greedy assigns
// each sensor an activation offset within its own charging period over
// the hyperperiod, exploiting fast chargers' extra active slots —
// something the homogeneous scheduler must forfeit by assuming the
// worst-case period for everyone.
package main

import (
	"fmt"
	"log"

	"cool"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		sensors = 30
		targets = 6
	)
	network, err := cool.Deploy(cool.DeployConfig{
		Field:   cool.NewField(300),
		Sensors: sensors,
		Targets: targets,
		Range:   90,
	}, 17)
	if err != nil {
		return err
	}
	utility, err := cool.NewDetectionUtility(network, cool.FixedProb(0.4))
	if err != nil {
		return err
	}

	// Mixed fleet: every third mote has two panels (rho=1), shaded
	// motes (every fifth) recharge slowly (rho=5), the rest are the
	// standard sunny rho=3.
	periods := make([]cool.Period, sensors)
	counts := map[string]int{}
	for i := range periods {
		rho := 3.0
		kind := "standard (rho=3)"
		switch {
		case i%3 == 0:
			rho, kind = 1, "two-panel (rho=1)"
		case i%5 == 0:
			rho, kind = 5, "shaded (rho=5)"
		}
		p, err := cool.PeriodFromRho(rho)
		if err != nil {
			return err
		}
		periods[i] = p
		counts[kind]++
	}
	for kind, c := range map[string]int{
		"two-panel (rho=1)": counts["two-panel (rho=1)"],
		"standard (rho=3)":  counts["standard (rho=3)"],
		"shaded (rho=5)":    counts["shaded (rho=5)"],
	} {
		fmt.Printf("%2d motes %s\n", c, kind)
	}

	hetero, err := cool.PlanHetero(utility, periods)
	if err != nil {
		return err
	}
	heteroAvg := hetero.AverageUtility(utility.NewOracle, targets)
	fmt.Printf("\nheterogeneous greedy: hyperperiod %d slots, avg utility %.4f\n",
		hetero.Hyperperiod(), heteroAvg)

	// The homogeneous alternative must assume every sensor has the
	// worst (slowest) pattern in the fleet.
	worst, err := cool.PeriodFromRho(5)
	if err != nil {
		return err
	}
	planner, err := cool.NewPlanner(utility, worst)
	if err != nil {
		return err
	}
	plan, err := planner.Plan(cool.PlanRequest{Algorithm: cool.AlgorithmGreedy})
	if err != nil {
		return err
	}
	homo := plan.Schedule
	homoAvg := planner.AverageUtility(homo, targets)
	fmt.Printf("homogeneous greedy (worst-case rho=5 for all): avg utility %.4f\n", homoAvg)
	fmt.Printf("heterogeneity-aware gain: %+.1f%%\n", 100*(heteroAvg/homoAvg-1))

	// Execute the heterogeneous schedule on the simulator with
	// per-sensor charging: the analytic hyperperiod utility reproduces
	// exactly and no scheduled activation is denied.
	result, err := cool.SimulateHetero(
		utility, hetero, periods, 4*hetero.Hyperperiod(), targets, 3)
	if err != nil {
		return err
	}
	fmt.Printf("simulated %d slots: avg utility %.4f, denied activations %d\n",
		4*hetero.Hyperperiod(), result.AverageUtility, result.ActivationsDenied)
	return nil
}
