package cool

import (
	"fmt"
	"math"
	"testing"
	"time"
)

func deployTestNetwork(t *testing.T, n, m int) *Network {
	t.Helper()
	net, err := Deploy(DeployConfig{
		Field:   NewField(500),
		Sensors: n,
		Targets: m,
		Range:   120,
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// mustPlan plans req and returns the result, failing the test on error.
func mustPlan(tb testing.TB, p *Planner, req PlanRequest) *PlanResult {
	tb.Helper()
	res, err := p.Plan(req)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func sunnyPeriod(t *testing.T) Period {
	t.Helper()
	p, err := PeriodFromRho(3)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPeriodFromTimesFacade(t *testing.T) {
	p, slot, err := PeriodFromTimes(45*time.Minute, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if p.Slots() != 4 || slot != 15*time.Minute {
		t.Errorf("period = %+v slot = %v", p, slot)
	}
}

func TestEndToEndGreedyPipeline(t *testing.T) {
	net := deployTestNetwork(t, 30, 5)
	u, err := NewDetectionUtility(net, FixedProb(0.4))
	if err != nil {
		t.Fatal(err)
	}
	planner, err := NewPlanner(u, sunnyPeriod(t))
	if err != nil {
		t.Fatal(err)
	}
	sched := mustPlan(t, planner, PlanRequest{Algorithm: AlgorithmGreedy}).Schedule
	if sched.NumSensors() != 30 || sched.Period() != 4 {
		t.Fatalf("schedule shape: %d sensors, T=%d", sched.NumSensors(), sched.Period())
	}
	avg := planner.AverageUtility(sched, 5)
	if avg <= 0 || avg > 1 {
		t.Errorf("average utility %v out of (0,1]", avg)
	}
	lower, upper, err := planner.Bracket()
	if err != nil {
		t.Fatal(err)
	}
	pu := planner.PeriodUtility(sched)
	if pu < lower-1e-9 || pu > upper+1e-9 {
		t.Errorf("period utility %v outside bracket [%v, %v]", pu, lower, upper)
	}

	// Simulate the schedule for 10 periods: deterministic charging must
	// reproduce the analytic utility exactly.
	res, err := Simulate(planner, sched, 40, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.TotalUtility-10*pu) > 1e-9 {
		t.Errorf("simulated %v != analytic %v", res.TotalUtility, 10*pu)
	}
}

func TestNewPlannerValidation(t *testing.T) {
	if _, err := NewPlanner(nil, sunnyPeriod(t)); err == nil {
		t.Error("nil utility accepted")
	}
	net := deployTestNetwork(t, 5, 2)
	u, err := NewDetectionUtility(net, FixedProb(0.4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlanner(u, Period{}); err == nil {
		t.Error("invalid period accepted")
	}
}

func TestLazyGreedyFacadeMatches(t *testing.T) {
	net := deployTestNetwork(t, 40, 6)
	u, err := NewDetectionUtility(net, FixedProb(0.4))
	if err != nil {
		t.Fatal(err)
	}
	planner, err := NewPlanner(u, sunnyPeriod(t))
	if err != nil {
		t.Fatal(err)
	}
	eager := mustPlan(t, planner, PlanRequest{Algorithm: AlgorithmGreedy}).Schedule
	lazy := mustPlan(t, planner, PlanRequest{Algorithm: AlgorithmLazyGreedy}).Schedule
	if math.Abs(planner.PeriodUtility(eager)-planner.PeriodUtility(lazy)) > 1e-9 {
		t.Error("lazy and eager utilities differ")
	}
}

func TestExactFacadeSmall(t *testing.T) {
	net, err := AllCoverNetwork(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewDetectionUtility(net, FixedProb(0.4))
	if err != nil {
		t.Fatal(err)
	}
	planner, err := NewPlanner(u, sunnyPeriod(t))
	if err != nil {
		t.Fatal(err)
	}
	exact := mustPlan(t, planner, PlanRequest{Algorithm: AlgorithmExact}).Schedule
	greedy := mustPlan(t, planner, PlanRequest{Algorithm: AlgorithmGreedy}).Schedule
	ev, gv := planner.PeriodUtility(exact), planner.PeriodUtility(greedy)
	if gv > ev+1e-9 || gv < ev/2-1e-9 {
		t.Errorf("greedy %v outside [OPT/2, OPT] for OPT=%v", gv, ev)
	}
}

func TestLPRoundFacade(t *testing.T) {
	net := deployTestNetwork(t, 12, 6)
	cov, err := NewTargetCountUtility(net)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := NewPlanner(cov, sunnyPeriod(t))
	if err != nil {
		t.Fatal(err)
	}
	lp := mustPlan(t, planner, PlanRequest{Algorithm: AlgorithmLPRound, Seed: 7})
	sched, lpOpt := lp.Schedule, lp.LPBound
	if got := planner.PeriodUtility(sched); got > lpOpt+1e-6 {
		t.Errorf("rounded %v above LP bound %v", got, lpOpt)
	}
	// Detection utilities are not linearizable.
	det, err := NewDetectionUtility(net, FixedProb(0.4))
	if err != nil {
		t.Fatal(err)
	}
	dp, err := NewPlanner(det, sunnyPeriod(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dp.Plan(PlanRequest{Algorithm: AlgorithmLPRound, Seed: 7}); err == nil {
		t.Error("LPRound accepted a detection utility")
	}
}

func TestBaselinesFacade(t *testing.T) {
	net := deployTestNetwork(t, 20, 4)
	u, err := NewDetectionUtility(net, FixedProb(0.4))
	if err != nil {
		t.Fatal(err)
	}
	names := BaselineNames()
	if len(names) == 0 {
		t.Fatal("no baseline names")
	}
	// ρ = 1/2 plans every baseline in removal mode; the paper's
	// algorithm through the Baseline interface must equal Plan's greedy.
	for _, rho := range []float64{3, 0.5} {
		period, err := PeriodFromRho(rho)
		if err != nil {
			t.Fatal(err)
		}
		planner, err := NewPlanner(u, period)
		if err != nil {
			t.Fatal(err)
		}
		greedy := mustPlan(t, planner, PlanRequest{Algorithm: AlgorithmGreedy}).Schedule
		gv := planner.PeriodUtility(greedy)
		for _, name := range names {
			s, err := planner.Baseline(name, 3)
			if err != nil {
				t.Fatalf("ρ=%v %s: %v", rho, name, err)
			}
			if err := s.CheckFeasible(period); err != nil {
				t.Errorf("ρ=%v %s: %v", rho, name, err)
			}
			if name == string(AlgorithmGreedy) || name == string(AlgorithmLazyGreedy) {
				sameSchedule(t, fmt.Sprintf("ρ=%v %s", rho, name), planner, s, greedy)
			} else if bv := planner.PeriodUtility(s); bv > gv+1e-9 {
				t.Errorf("ρ=%v: %s beat greedy", rho, name)
			}
		}
		if _, err := planner.Baseline("nope", 1); err == nil {
			t.Error("unknown baseline accepted")
		}
	}
}

func TestAreaUtilityFacade(t *testing.T) {
	sensors := []Sensor{
		{ID: 0, Pos: Point{X: 100, Y: 100}, Range: 60},
		{ID: 1, Pos: Point{X: 300, Y: 300}, Range: 60},
	}
	net, err := NewNetwork(sensors, nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewAreaUtility(net, NewField(400), 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	full := u.Eval([]int{0, 1})
	want := 2 * math.Pi * 3600
	if math.Abs(full-want)/want > 0.02 {
		t.Errorf("area utility %v, want ~%v", full, want)
	}
	sub, err := Subregions(net, NewField(400), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Cells) < 3 {
		t.Errorf("cells = %d", len(sub.Cells))
	}
	if _, err := Subregions(nil, NewField(1), 10); err == nil {
		t.Error("nil network accepted")
	}
}

func TestWrapFunctionAndCheckSubmodular(t *testing.T) {
	gadget, err := NewSubsetSumGadget([]int64{2, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSubmodular(gadget.Utility); err != nil {
		t.Errorf("log-sum utility failed check: %v", err)
	}
	u, err := WrapFunction(gadget.Utility)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := PeriodFromRho(1)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := NewPlanner(u, p1)
	if err != nil {
		t.Fatal(err)
	}
	sched := mustPlan(t, planner, PlanRequest{Algorithm: AlgorithmGreedy}).Schedule
	if sched.Period() != 2 {
		t.Errorf("period = %d, want 2", sched.Period())
	}
	if _, err := WrapFunction(nil); err == nil {
		t.Error("nil function accepted")
	}
}

func TestSubsetSumGadgetFacade(t *testing.T) {
	g, err := NewSubsetSumGadget([]int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := g.HasPerfectPartition(ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("{1,2,3} admits {1,2}|{3} but was rejected")
	}
	bad, err := NewSubsetSumGadget([]int64{1, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	ok, err = bad.HasPerfectPartition(ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("{1,1,3} has no perfect partition")
	}
}

func TestPaperUpperBoundFacade(t *testing.T) {
	b, err := PaperUpperBound(0.4, 100, sunnyPeriod(t))
	if err != nil {
		t.Fatal(err)
	}
	if b <= 0.99 || b > 1 {
		t.Errorf("bound = %v", b)
	}
}

func TestMeasureCampaignFacade(t *testing.T) {
	records, err := MeasureCampaign(CampaignConfig{
		Nodes:    1,
		Days:     []Weather{WeatherSunny},
		Interval: 2 * time.Minute,
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	patterns, err := EstimatePatterns(records, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(patterns) == 0 {
		t.Fatal("no patterns estimated")
	}
	tr, td, err := WeatherPattern(WeatherSunny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr != 45*time.Minute || td != 15*time.Minute {
		t.Errorf("sunny pattern %v/%v", tr, td)
	}
}

func TestRandomChargingFacade(t *testing.T) {
	net := deployTestNetwork(t, 10, 3)
	u, err := NewDetectionUtility(net, FixedProb(0.4))
	if err != nil {
		t.Fatal(err)
	}
	planner, err := NewPlanner(u, sunnyPeriod(t))
	if err != nil {
		t.Fatal(err)
	}
	sched := mustPlan(t, planner, PlanRequest{Algorithm: AlgorithmGreedy}).Schedule
	res, err := RunSimulation(SimConfig{
		NumSensors: 10,
		Slots:      40,
		Policy:     SchedulePolicy{Schedule: sched},
		Charging: RandomCharging{
			Period:        planner.Period(),
			EventRate:     1,
			EventDuration: 1,
		},
		Factory: NewInstanceOracleFactory(u),
		Targets: 3,
		Seed:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AverageUtility <= 0 {
		t.Error("zero utility under random charging")
	}
}

func TestLPRoundDeterministicFacade(t *testing.T) {
	net := deployTestNetwork(t, 10, 5)
	cov, err := NewTargetCountUtility(net)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := NewPlanner(cov, sunnyPeriod(t))
	if err != nil {
		t.Fatal(err)
	}
	lp := mustPlan(t, planner, PlanRequest{Algorithm: AlgorithmLPRoundDeterministic})
	sched, lpOpt := lp.Schedule, lp.LPBound
	val := planner.PeriodUtility(sched)
	if val > lpOpt+1e-6 {
		t.Errorf("value %v above LP bound %v", val, lpOpt)
	}
	if val < 0.63*lpOpt-1e-6 {
		t.Errorf("value %v below (1-1/e) of LP bound %v", val, lpOpt)
	}
	// Deterministic: two invocations agree exactly.
	again := mustPlan(t, planner, PlanRequest{Algorithm: AlgorithmLPRoundDeterministic}).Schedule
	if planner.PeriodUtility(again) != val {
		t.Error("LPRoundDeterministic is not deterministic")
	}
	// Detection utilities are rejected.
	det, err := NewDetectionUtility(net, FixedProb(0.4))
	if err != nil {
		t.Fatal(err)
	}
	dp, err := NewPlanner(det, sunnyPeriod(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dp.Plan(PlanRequest{Algorithm: AlgorithmLPRoundDeterministic}); err == nil {
		t.Error("detection utility accepted")
	}
}

func TestNewCoverageUtilityFacade(t *testing.T) {
	u, err := NewCoverageUtility(3, []CoverageItem{
		{Value: 2, CoveredBy: []int{0, 1}},
		{Value: 1, CoveredBy: []int{2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := u.Eval([]int{0, 2}); got != 3 {
		t.Errorf("eval = %v", got)
	}
	if err := CheckSubmodular(u); err != nil {
		t.Error(err)
	}
	if _, err := NewCoverageUtility(1, []CoverageItem{{Value: -1, CoveredBy: []int{0}}}); err == nil {
		t.Error("invalid items accepted")
	}
}

func TestRunClosedLoopFacade(t *testing.T) {
	net := deployTestNetwork(t, 12, 4)
	u, err := NewDetectionUtility(net, FixedProb(0.4))
	if err != nil {
		t.Fatal(err)
	}
	weather, err := WeatherSequence(DefaultWeatherModel(), WeatherSunny, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunClosedLoop(u, weather, ClosedLoopOptions{Targets: 4, Estimate: true, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 5 {
		t.Fatalf("windows = %d", len(res.Windows))
	}
	if res.AverageUtility <= 0 {
		t.Error("zero run utility")
	}
	if res.Replans < 1 {
		t.Error("no replans recorded")
	}
	if _, err := RunClosedLoop(nil, weather, ClosedLoopOptions{}); err == nil {
		t.Error("nil utility accepted")
	}
	if _, err := WeatherSequence(nil, WeatherSunny, 3, 1); err == nil {
		t.Error("nil model accepted")
	}
}

// TestRunClosedLoopHeteroStreak combines both closed-loop extensions
// through the facade: a mixed-panel fleet living through a weather
// sequence with an injected rain streak.
func TestRunClosedLoopHeteroStreak(t *testing.T) {
	net := deployTestNetwork(t, 8, 3)
	u, err := NewDetectionUtility(net, FixedProb(0.4))
	if err != nil {
		t.Fatal(err)
	}
	weather, err := WeatherSequence(DefaultWeatherModel(), WeatherSunny, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	weather, err = InjectWeatherStreak(weather, 2, 2, WeatherRain)
	if err != nil {
		t.Fatal(err)
	}
	opts := ClosedLoopOptions{
		Targets: 3,
		Panels:  []int{1, 2, 1, 2, 1, 2, 1, 2},
		Seed:    8,
	}
	res, err := RunClosedLoop(u, weather, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 6 {
		t.Fatalf("windows = %d", len(res.Windows))
	}
	for i, w := range res.Windows {
		if w.Hyperperiod <= 0 {
			t.Errorf("window %d hyperperiod %d on mixed-panel fleet", i, w.Hyperperiod)
		}
	}
	// The streak forces a replan on entry and the rain windows must be
	// the worst of the run.
	if !res.Windows[2].Replanned {
		t.Error("no replan at streak entry")
	}
	for _, rainy := range res.Windows[2:4] {
		for _, clear := range []WindowReport{res.Windows[0], res.Windows[1]} {
			if rainy.AverageUtility >= clear.AverageUtility {
				t.Errorf("rain window %d utility %v not below clear window %d (%v)",
					rainy.Window, rainy.AverageUtility, clear.Window, clear.AverageUtility)
			}
		}
	}
	// Panel counts must match the fleet.
	opts.Panels = []int{1, 2}
	if _, err := RunClosedLoop(u, weather, opts); err == nil {
		t.Error("mismatched panel vector accepted")
	}
}
