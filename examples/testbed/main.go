// Testbed pipeline: the full loop the paper's rooftop deployment ran.
//
//  1. Measure: simulate a day of solar charging traces for the fleet
//     and estimate the (Tr, Td) charging pattern per 2-hour window.
//  2. Plan: build the greedy activation schedule for the estimated
//     period.
//  3. Disseminate: flood the schedule from the base station over the
//     lossy multihop radio network and wait for every node's ack.
//  4. Collect: nodes report their readings up the convergecast tree to
//     the base station.
package main

import (
	"fmt"
	"log"
	"time"

	"cool"
	"cool/internal/netsim"
	"cool/internal/protocol"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		sensors = 36
		targets = 6
	)

	// --- 1. Measure the charging pattern -------------------------------
	records, err := cool.MeasureCampaign(cool.CampaignConfig{
		Nodes:    3,
		Days:     []cool.Weather{cool.WeatherSunny},
		Interval: time.Minute,
		Seed:     5,
	})
	if err != nil {
		return err
	}
	patterns, err := cool.EstimatePatterns(records[:len(records)/3], 2*time.Hour)
	if err != nil {
		return err
	}
	best := patterns[len(patterns)/2]
	fmt.Printf("estimated charging pattern: Tr=%v Td=%v (rho=%.2f)\n",
		best.Recharge.Round(time.Minute), best.Discharge.Round(time.Minute), best.Rho())
	period, err := best.Period()
	if err != nil {
		return err
	}
	fmt.Printf("normalized period: T=%d slots\n", period.Slots())

	// --- 2. Plan the activation schedule -------------------------------
	network, err := cool.Deploy(cool.DeployConfig{
		Field:   cool.NewField(120),
		Sensors: sensors,
		Targets: targets,
		Range:   40,
		Layout:  cool.LayoutGrid,
	}, 8)
	if err != nil {
		return err
	}
	utility, err := cool.NewDetectionUtility(network, cool.FixedProb(0.4))
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
	schedule := plan.Schedule
	fmt.Printf("planned schedule: avg utility %.4f per target per slot\n",
		planner.AverageUtility(schedule, targets))

	// --- 3. Disseminate over the lossy radio network --------------------
	radio, err := netsim.NewNetwork(netsim.WithLoss(0.2), netsim.WithSeed(13))
	if err != nil {
		return err
	}
	// Base station at the field corner, then the sensor fleet, all
	// registered in one bulk call. Radio range 45 keeps the grid
	// multihop but connected.
	specs := make([]netsim.NodeSpec, 0, sensors+1)
	specs = append(specs, netsim.NodeSpec{ID: protocol.BaseID, Pos: cool.Point{X: 0, Y: 0}, Radio: 45})
	for _, s := range network.Sensors() {
		specs = append(specs, netsim.NodeSpec{ID: netsim.NodeID(s.ID + 1), Pos: s.Pos, Radio: 45})
	}
	if err := radio.AddNodes(specs); err != nil {
		return err
	}
	if !radio.Connected() {
		return fmt.Errorf("radio network is not connected")
	}
	engine, err := protocol.NewEngine(protocol.Config{}, radio)
	if err != nil {
		return err
	}
	for id := netsim.NodeID(0); id <= sensors; id++ {
		if err := engine.Register(id); err != nil {
			return err
		}
	}
	if err := engine.Distribute(protocol.ScheduleMsg{
		Version: 1,
		Assign:  schedule.Assignment(),
		Period:  schedule.Period(),
		Removal: schedule.Mode() == cool.ModeRemoval,
	}); err != nil {
		return err
	}
	ticks, ok, err := engine.RunUntil(engine.AllAcked, 5000)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("dissemination incomplete: %d acks", engine.AckedCount())
	}
	sent, delivered, dropped := radio.Stats()
	fmt.Printf("schedule disseminated to %d nodes in %d ticks over 20%%-lossy links\n", sensors, ticks)
	fmt.Printf("radio: %d sent, %d delivered, %d dropped\n", sent, delivered, dropped)

	// --- 4. Collect readings at the base -------------------------------
	for id := netsim.NodeID(1); id <= sensors; id++ {
		if err := engine.Report(id, 0, float64(id)*1.5); err != nil {
			return err
		}
	}
	_, ok, err = engine.RunUntil(func() bool {
		return len(engine.Collected()) >= sensors
	}, 5000)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("collection incomplete: %d reports", len(engine.Collected()))
	}
	fmt.Printf("base station collected %d reports via convergecast\n", len(engine.Collected()))

	// --- Execute the schedule for a day ---------------------------------
	result, err := cool.Simulate(planner, schedule, 12*period.Slots(), targets, 3)
	if err != nil {
		return err
	}
	fmt.Printf("one simulated day: avg utility %.4f, denied activations %d\n",
		result.AverageUtility, result.ActivationsDenied)
	return nil
}
