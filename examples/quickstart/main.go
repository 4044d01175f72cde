// Quickstart: deploy a small solar-powered sensor network, compute the
// paper's greedy hill-climbing activation schedule, and simulate one
// working day.
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
	// 1. Deploy 20 sensors and 3 targets in a 200x200 field.
	network, err := cool.Deploy(cool.DeployConfig{
		Field:   cool.NewField(200),
		Sensors: 20,
		Targets: 3,
		Range:   60,
	}, 7 /* seed */)
	if err != nil {
		return err
	}

	// 2. Each covering sensor detects an event with probability 0.4
	// (the paper's evaluation setting); the per-slot utility is the
	// probability that an event at each target is detected.
	utility, err := cool.NewDetectionUtility(network, cool.FixedProb(0.4))
	if err != nil {
		return err
	}

	// 3. Sunny-weather charging pattern: Tr = 45 min, Td = 15 min, so
	// rho = 3 and the period is T = 4 slots of 15 minutes.
	period, err := cool.PeriodFromRho(3)
	if err != nil {
		return err
	}

	// 4. Plan with the greedy hill-climbing scheme: at least 1/2 of the
	// optimal average utility, by Lemma 4.1 of the paper.
	planner, err := cool.NewPlanner(utility, period)
	if err != nil {
		return err
	}
	plan, err := planner.Plan(cool.PlanRequest{Algorithm: cool.AlgorithmGreedy})
	if err != nil {
		return err
	}
	schedule := plan.Schedule

	fmt.Printf("schedule period: %d slots, sensors per slot: %v\n",
		schedule.Period(), schedule.SlotSizes())
	fmt.Printf("average utility per target per slot: %.4f\n",
		planner.AverageUtility(schedule, network.NumTargets()))
	lower, upper, err := planner.Bracket()
	if err != nil {
		return err
	}
	fmt.Printf("optimal period utility is within [%.4f, %.4f]\n", lower, upper)

	// 5. Simulate one 12-hour working day (48 slots of 15 minutes)
	// under deterministic charging.
	result, err := cool.Simulate(planner, schedule, 48, network.NumTargets(), 1)
	if err != nil {
		return err
	}
	fmt.Printf("simulated day: total utility %.4f, average %.4f, denied activations %d\n",
		result.TotalUtility, result.AverageUtility, result.ActivationsDenied)
	return nil
}
