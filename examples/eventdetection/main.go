// Event detection under the paper's Section-V random charging model:
// events arrive at active sensors as a Poisson process and drain the
// battery only while being monitored, while recharge times fluctuate
// around the estimated pattern. The example compares the greedy
// schedule against round-robin and the naive all-ready policy across
// event loads.
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
		sensors = 60
		targets = 8
		days    = 5
	)
	network, err := cool.Deploy(cool.DeployConfig{
		Field:   cool.NewField(300),
		Sensors: sensors,
		Targets: targets,
		Range:   90,
	}, 23)
	if err != nil {
		return err
	}
	// Detection quality decays with distance: a sensor right on top of
	// the target detects with probability 0.9, one at the edge of its
	// range barely at all.
	utility, err := cool.NewDetectionUtility(network, cool.DistanceDecay{PMax: 0.9, Gamma: 1})
	if err != nil {
		return err
	}
	period, err := cool.PeriodFromRho(3)
	if err != nil {
		return err
	}
	planner, err := cool.NewPlanner(utility, period)
	if err != nil {
		return err
	}

	plan, err := planner.Plan(cool.PlanRequest{Algorithm: cool.AlgorithmGreedy})
	if err != nil {
		return err
	}
	greedy := plan.Schedule
	roundRobin, err := planner.Baseline("round-robin", 1)
	if err != nil {
		return err
	}

	policies := []struct {
		name string
		pol  cool.Policy
	}{
		{"greedy", cool.SchedulePolicy{Schedule: greedy}},
		{"round-robin", cool.SchedulePolicy{Schedule: roundRobin}},
		{"all-ready", cool.AllReadyPolicy{}},
	}

	runOnce := func(pol cool.Policy, charging cool.SimConfig) (*cool.SimResult, error) {
		cfg := charging
		cfg.NumSensors = sensors
		cfg.Slots = days * 48
		cfg.Policy = pol
		cfg.Factory = cool.NewInstanceOracleFactory(utility)
		cfg.Targets = targets
		cfg.Seed = 99
		return cool.RunSimulation(cfg)
	}

	fmt.Println("deterministic charging (the paper's base model):")
	fmt.Println("policy        avg-utility   denied")
	for _, p := range policies {
		result, err := runOnce(p.pol, cool.SimConfig{
			Charging: cool.DeterministicCharging{Period: period},
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-13s %11.4f   %6d\n", p.name, result.AverageUtility, result.ActivationsDenied)
	}

	fmt.Println("\nrandom charging (Section V: Poisson events, jittered recharge):")
	fmt.Println("policy        event-load   avg-utility   denied")
	for _, p := range policies {
		for _, load := range []float64{0.25, 1, 4} {
			result, err := runOnce(p.pol, cool.SimConfig{
				Charging: cool.RandomCharging{
					Period:        period,
					EventRate:     load,
					EventDuration: 1,
				},
			})
			if err != nil {
				return err
			}
			fmt.Printf("%-13s %10.2f   %11.4f   %6d\n",
				p.name, load, result.AverageUtility, result.ActivationsDenied)
		}
	}
	fmt.Println(`
reading the numbers:
  - under the deterministic model the greedy schedule dominates and
    all-ready wastes the fleet on the first slot of every period;
  - under random charging, batteries drain only while monitoring
    events, so at light loads staying always-on is nearly free and
    all-ready pulls ahead — scheduling rigidly around a worst-case
    drain forfeits that slack (the paper flags the greedy extension to
    this model as future work);
  - as the event load saturates, the models converge and the denied
    count shows the rigid schedule missing jittered recharges.`)
	return nil
}
