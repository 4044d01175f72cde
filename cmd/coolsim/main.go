// Command coolsim runs the slotted WSN simulation for a scheduled or
// naive policy under deterministic or random (Section V) charging and
// prints per-run utility summaries.
//
// Usage:
//
//	coolsim -n 100 -m 20 -days 30
//	coolsim -n 100 -m 20 -charging random -event-rate 0.5
//	coolsim -n 100 -m 20 -policy all-ready
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"cool"
	"cool/internal/netsim"
	"cool/internal/protocol"
)

// policyAlgorithms maps the -policy names planned by a facade engine.
var policyAlgorithms = map[string]cool.Algorithm{
	"greedy":   cool.AlgorithmGreedy,
	"lazy":     cool.AlgorithmLazyGreedy,
	"parallel": cool.AlgorithmParallelLazyGreedy,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "coolsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("coolsim", flag.ContinueOnError)
	var (
		n         = fs.Int("n", 100, "number of sensors")
		m         = fs.Int("m", 10, "number of targets")
		field     = fs.Float64("field", 500, "square field side length")
		radius    = fs.Float64("range", 100, "sensing radius")
		p         = fs.Float64("p", 0.4, "per-sensor detection probability")
		rho       = fs.Float64("rho", 3, "charging ratio Tr/Td")
		days      = fs.Int("days", 30, "working days (the paper ran 30); each day is 48 slots of 15 min")
		policy    = fs.String("policy", "greedy", "policy: greedy|lazy|parallel|all-ready|random|round-robin|first-slot|sorted-stride")
		shards    = fs.Int("shards", 0, "plan with the sharded decomposition over this many geometric strips (0 disables; greedy|lazy|parallel policies only)")
		charging  = fs.String("charging", "deterministic", "charging model: deterministic|random")
		eventRate = fs.Float64("event-rate", 1, "random charging: Poisson event rate per slot")
		eventDur  = fs.Float64("event-duration", 1, "random charging: mean event duration in slots")
		seed      = fs.Uint64("seed", 1, "random seed")
		schedFile = fs.String("schedule", "", "load a JSON schedule (from coolsched -save) instead of computing one")
		loop      = fs.Bool("loop", false, "closed-loop mode: Markov weather, per-day pattern estimation and re-planning")
		life      = fs.String("lifetime", "", "lifetime-objective mode: plan sustained coverage with hef|strip-cover|lifetime-exact instead of simulating the utility objective")
		horizon   = fs.Int("horizon", 0, "lifetime mode: planning horizon in slots (0 selects 4 charging periods)")
		kcov      = fs.Int("k", 1, "lifetime mode: per-target coverage requirement")
		battery   = fs.Float64("battery", 1, "lifetime mode: per-sensor battery capacity in active-slot units")
		reps      = fs.Int("reps", 1, "Monte-Carlo replications (>1 reports a mean with a 95% CI)")
		workers   = fs.Int("workers", 0, "worker goroutines for sharded planning and Monte-Carlo runs (<=0 selects NumCPU)")
		radio     = fs.Bool("radio", false, "disseminate the schedule over the simulated lossy radio network before running")
		radioLoss = fs.Float64("radio-loss", 0.1, "radio mode: per-link drop probability in [0,1)")
		radioRng  = fs.Float64("radio-range", 0, "radio mode: transmission range (0 selects 35% of the field side)")
		kill      = fs.String("kill", "", "perturbation script: kill sensors mid-run, e.g. \"5:3+17;12:40\" (day:id+id;...)")
		deploy    = fs.String("deploy", "", "perturbation script: re-deploy absent sensors, e.g. \"8:3+17\" (day:id+id;...)")
		drift     = fs.String("drift", "", "perturbation script: recharge-ratio drift, e.g. \"10:0.5;20:3\" (day:rho;...)")
		reserve   = fs.Int("reserve", 0, "hold back the last k sensors as an undeployed reserve pool for -deploy")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *days <= 0 {
		return fmt.Errorf("non-positive day count %d", *days)
	}
	if *loop {
		return runClosedLoop(out, *n, *m, *field, *radius, *p, *days, *seed)
	}
	if *life != "" {
		return runLifetime(out, *life, *n, *m, *field, *radius, *rho, *horizon, *kcov, *battery, *seed)
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
	if *kill != "" || *deploy != "" || *drift != "" || *reserve > 0 {
		if *schedFile != "" || *shards > 0 || *radio || *reps > 1 || *policy != "greedy" {
			return fmt.Errorf("perturbation scripts require the default greedy policy without -schedule/-shards/-radio/-reps")
		}
		events, err := parsePerturbScript(*kill, *deploy, *drift)
		if err != nil {
			return err
		}
		return runPerturbed(out, net, util, *rho, *days, *reserve, events, *seed, 48)
	}
	period, err := cool.PeriodFromRho(*rho)
	if err != nil {
		return err
	}
	planner, err := cool.NewPlanner(util, period)
	if err != nil {
		return err
	}

	var pol cool.Policy
	if *schedFile != "" {
		data, err := os.ReadFile(*schedFile)
		if err != nil {
			return err
		}
		var sched cool.Schedule
		if err := json.Unmarshal(data, &sched); err != nil {
			return err
		}
		if sched.NumSensors() != *n {
			return fmt.Errorf("schedule covers %d sensors, deployment has %d",
				sched.NumSensors(), *n)
		}
		pol = cool.SchedulePolicy{Schedule: &sched}
		*policy = "file:" + *schedFile
	}
	if pol == nil && *shards > 0 {
		if _, planned := policyAlgorithms[*policy]; !planned {
			return fmt.Errorf("-shards requires the greedy, lazy or parallel policy, not %q", *policy)
		}
		res, err := cool.ShardedDetectionPlan(net, cool.FixedProb(*p), period, cool.ShardedOptions{
			Shards:  *shards,
			Workers: *workers,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "sharded plan: %d/%d shards, %d halo sensors, %d border moves in %d rounds, utility %.4f (sweep gain %.4f)\n",
			res.EffectiveShards, res.RequestedShards, res.Halo, res.Moves, res.Rounds,
			res.Utility, res.Utility-res.UtilityBefore)
		pol = cool.SchedulePolicy{Schedule: res.Schedule}
	}
	if pol == nil {
		switch alg, planned := policyAlgorithms[*policy]; {
		case *policy == "all-ready":
			pol = cool.AllReadyPolicy{}
		case planned:
			res, err := planner.Plan(cool.PlanRequest{Algorithm: alg})
			if err != nil {
				return err
			}
			pol = cool.SchedulePolicy{Schedule: res.Schedule}
		default:
			sched, err := planner.Baseline(*policy, *seed)
			if err != nil {
				return err
			}
			pol = cool.SchedulePolicy{Schedule: sched}
		}
	}

	if *radio {
		sp, ok := pol.(cool.SchedulePolicy)
		if !ok {
			return fmt.Errorf("-radio requires a schedule-based policy, not %q", *policy)
		}
		rng := *radioRng
		if rng <= 0 {
			rng = 0.35 * *field
		}
		if err := disseminate(out, net, sp.Schedule, *radioLoss, rng, *seed); err != nil {
			return err
		}
	}

	slotsPerDay := 48 // 12-hour working day of 15-minute slots
	cfg := cool.SimConfig{
		NumSensors: *n,
		Slots:      *days * slotsPerDay,
		Policy:     pol,
		Factory:    cool.NewInstanceOracleFactory(util),
		Targets:    *m,
		Seed:       *seed,
	}
	switch *charging {
	case "deterministic":
		cfg.Charging = cool.DeterministicCharging{Period: period}
	case "random":
		cfg.Charging = cool.RandomCharging{
			Period:        period,
			EventRate:     *eventRate,
			EventDuration: *eventDur,
		}
	default:
		return fmt.Errorf("unknown charging model %q", *charging)
	}

	if *reps > 1 {
		mc, err := cool.RunMonteCarlo(cfg, *reps, *workers)
		if err != nil {
			return err
		}
		avg := mc.AverageUtility
		fmt.Fprintf(out, "simulated %d days (%d slots) x %d replications, policy=%s charging=%s workers=%d\n",
			*days, cfg.Slots, *reps, *policy, *charging, cool.ResolveWorkers(*workers))
		fmt.Fprintf(out, "average utility per target per slot: %.6f ± %.6f (95%% CI)\n",
			avg.Mean, mc.ConfidenceInterval95())
		fmt.Fprintf(out, "  std %.6f  min %.6f  median %.6f  max %.6f\n",
			avg.Std, avg.Min, avg.Median, avg.Max)
		fmt.Fprintf(out, "total utility: mean %.4f\n", mc.TotalUtility.Mean)
		fmt.Fprintf(out, "denied activations (all replications): %d\n", mc.ActivationsDenied)
		return nil
	}

	res, err := cool.RunSimulation(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "simulated %d days (%d slots), policy=%s charging=%s\n",
		*days, cfg.Slots, *policy, *charging)
	fmt.Fprintf(out, "total utility:   %.4f\n", res.TotalUtility)
	fmt.Fprintf(out, "average utility per target per slot: %.6f\n", res.AverageUtility)
	fmt.Fprintf(out, "denied activations: %d\n", res.ActivationsDenied)
	var active, maxActive int
	for _, rec := range res.PerSlot {
		active += rec.Active
		if rec.Active > maxActive {
			maxActive = rec.Active
		}
	}
	fmt.Fprintf(out, "mean active sensors per slot: %.2f (max %d)\n",
		float64(active)/float64(len(res.PerSlot)), maxActive)
	return nil
}

// disseminate floods the planned schedule from a base station at the
// field origin over the flat-core radio network built from the sensor
// deployment, waiting for every node's acknowledgement — the paper's
// control-plane step between planning and execution (Section VI).
func disseminate(out io.Writer, net *cool.Network, sched *cool.Schedule, loss, radioRange float64, seed uint64) error {
	sensors := net.Sensors()
	specs := make([]netsim.NodeSpec, 0, len(sensors)+1)
	specs = append(specs, netsim.NodeSpec{ID: protocol.BaseID, Radio: radioRange})
	for _, s := range sensors {
		specs = append(specs, netsim.NodeSpec{
			ID:    netsim.NodeID(s.ID + 1),
			Pos:   s.Pos,
			Radio: radioRange,
		})
	}
	medium, err := netsim.NewNetwork(netsim.WithLoss(loss), netsim.WithSeed(seed))
	if err != nil {
		return err
	}
	if err := medium.AddNodes(specs); err != nil {
		return err
	}
	if !medium.Connected() {
		return fmt.Errorf("radio network disconnected at range %.1f; raise -radio-range", radioRange)
	}
	engine, err := protocol.NewEngine(protocol.Config{}, medium)
	if err != nil {
		return err
	}
	for _, s := range specs {
		if err := engine.Register(s.ID); err != nil {
			return err
		}
	}
	if err := engine.Distribute(protocol.ScheduleMsg{
		Version: 1,
		Assign:  sched.Assignment(),
		Period:  sched.Period(),
		Removal: sched.Mode() == cool.ModeRemoval,
	}); err != nil {
		return err
	}
	ticks, ok, err := engine.RunUntil(engine.AllAcked, 20000)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("dissemination incomplete after %d ticks: %d/%d acks",
			ticks, engine.AckedCount(), len(specs))
	}
	sent, delivered, dropped := medium.Stats()
	fmt.Fprintf(out, "schedule disseminated to %d nodes in %d ticks (loss %.0f%%): %d sent, %d delivered, %d dropped\n",
		len(sensors), ticks, loss*100, sent, delivered, dropped)
	return nil
}

// runLifetime plans the coverage-lifetime objective: how many slots
// the fleet can keep every target k-covered under per-sensor battery
// budgets and a Markov-weather harvest envelope, using the requested
// competing planner through the unified Plan API.
func runLifetime(out io.Writer, alg string, n, m int, field, radius, rho float64, horizon, k int, battery float64, seed uint64) error {
	net, err := cool.Deploy(cool.DeployConfig{
		Field:   cool.NewField(field),
		Sensors: n,
		Targets: m,
		Range:   radius,
	}, seed)
	if err != nil {
		return err
	}
	util, err := cool.NewTargetCountUtility(net)
	if err != nil {
		return err
	}
	period, err := cool.PeriodFromRho(rho)
	if err != nil {
		return err
	}
	planner, err := cool.NewPlanner(util, period)
	if err != nil {
		return err
	}
	if horizon <= 0 {
		horizon = 4 * period.Slots()
	}
	// One weather class per slot: the harvest envelope the schedule
	// must survive, rain streaks included.
	weather, err := cool.WeatherSequence(cool.DefaultWeatherModel(), cool.WeatherSunny, horizon, seed)
	if err != nil {
		return err
	}
	capacity := make([]float64, n)
	for i := range capacity {
		capacity[i] = battery
	}
	res, err := planner.Plan(cool.PlanRequest{
		Algorithm: cool.Algorithm(alg),
		Objective: cool.ObjectiveLifetime,
		Lifetime: &cool.LifetimeOptions{
			Horizon:  horizon,
			K:        k,
			Capacity: capacity,
			Weather:  weather,
		},
	})
	if err != nil {
		return err
	}
	lr := res.Lifetime
	var active int
	for t := 0; t < lr.Schedule.Slots(); t++ {
		active += len(lr.Schedule.ActiveAt(t))
	}
	fmt.Fprintf(out, "lifetime objective, algorithm=%s: %d sensors, %d targets, k=%d, battery=%.1f slots\n",
		res.Algorithm, n, m, k, battery)
	fmt.Fprintf(out, "sustained coverage for %d of %d slots\n", lr.Lifetime, lr.Horizon)
	if lr.Groups > 0 {
		fmt.Fprintf(out, "cover groups: %d\n", lr.Groups)
	}
	if lr.Lifetime > 0 {
		fmt.Fprintf(out, "mean active sensors per covered slot: %.2f\n",
			float64(active)/float64(lr.Lifetime))
	}
	return nil
}

// runClosedLoop lives through a Markov-sampled weather sequence with
// per-day pattern estimation and re-planning (the paper's operational
// mode for multi-day deployments).
func runClosedLoop(out io.Writer, n, m int, field, radius, p float64, days int, seed uint64) error {
	net, err := cool.Deploy(cool.DeployConfig{
		Field:   cool.NewField(field),
		Sensors: n,
		Targets: m,
		Range:   radius,
	}, seed)
	if err != nil {
		return err
	}
	util, err := cool.NewDetectionUtility(net, cool.FixedProb(p))
	if err != nil {
		return err
	}
	weather, err := cool.WeatherSequence(cool.DefaultWeatherModel(), cool.WeatherSunny, days, seed)
	if err != nil {
		return err
	}
	res, err := cool.RunClosedLoop(util, weather, cool.ClosedLoopOptions{
		Targets:  m,
		Estimate: true,
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(out, res.ReportTable())
	return nil
}
