package cool_test

import (
	"fmt"

	"cool"
)

// Example demonstrates the core pipeline: deploy, build the utility,
// plan with the greedy hill-climbing scheme, and evaluate.
func Example() {
	network, err := cool.Deploy(cool.DeployConfig{
		Field:   cool.NewField(200),
		Sensors: 12,
		Targets: 2,
		Range:   80,
	}, 3)
	if err != nil {
		panic(err)
	}
	utility, err := cool.NewDetectionUtility(network, cool.FixedProb(0.4))
	if err != nil {
		panic(err)
	}
	period, err := cool.PeriodFromRho(3) // Tr=45min / Td=15min
	if err != nil {
		panic(err)
	}
	planner, err := cool.NewPlanner(utility, period)
	if err != nil {
		panic(err)
	}
	plan, err := planner.Plan(cool.PlanRequest{Algorithm: cool.AlgorithmGreedy})
	if err != nil {
		panic(err)
	}
	schedule := plan.Schedule
	fmt.Printf("T=%d slots, mode=%v\n", schedule.Period(), schedule.Mode())
	fmt.Printf("every sensor active once per period: %v\n",
		schedule.CheckFeasible(period) == nil)
	// Output:
	// T=4 slots, mode=placement
	// every sensor active once per period: true
}

// ExamplePeriodFromTimes normalizes the paper's measured sunny-weather
// charging pattern into a scheduling period.
func ExamplePeriodFromTimes() {
	period, slot, err := cool.PeriodFromTimes(45*60e9, 15*60e9) // 45min, 15min
	if err != nil {
		panic(err)
	}
	fmt.Printf("rho=%.0f T=%d slot=%v\n", period.Rho(), period.Slots(), slot)
	// Output:
	// rho=3 T=4 slot=15m0s
}

// ExamplePaperUpperBound evaluates the closed-form Figure-8 bound.
func ExamplePaperUpperBound() {
	period, err := cool.PeriodFromRho(3)
	if err != nil {
		panic(err)
	}
	bound, err := cool.PaperUpperBound(0.4, 8, period)
	if err != nil {
		panic(err)
	}
	fmt.Printf("U* = %.4f\n", bound) // 1 - 0.6^2
	// Output:
	// U* = 0.6400
}

// ExampleNewSubsetSumGadget runs the Theorem-3.1 NP-hardness reduction
// on a small Subset-Sum instance.
func ExampleNewSubsetSumGadget() {
	gadget, err := cool.NewSubsetSumGadget([]int64{3, 5, 2, 4})
	if err != nil {
		panic(err)
	}
	ok, err := gadget.HasPerfectPartition(cool.ExactOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("{3,5,2,4} has a perfect partition: %v\n", ok) // {3,4} vs {5,2}
	// Output:
	// {3,5,2,4} has a perfect partition: true
}

// ExampleCheckSubmodular validates a utility before trusting the
// greedy guarantee.
func ExampleCheckSubmodular() {
	network, err := cool.AllCoverNetwork(5, 2)
	if err != nil {
		panic(err)
	}
	utility, err := cool.NewDetectionUtility(network, cool.FixedProb(0.5))
	if err != nil {
		panic(err)
	}
	fmt.Println(cool.CheckSubmodular(utility) == nil)
	// Output:
	// true
}
