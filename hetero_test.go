package cool

import (
	"math"
	"testing"
)

func mixedPeriods(t *testing.T, n int) []Period {
	t.Helper()
	rhos := []float64{1, 3, 5}
	out := make([]Period, n)
	for i := range out {
		p, err := PeriodFromRho(rhos[i%len(rhos)])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}

func TestPlanHeteroEndToEnd(t *testing.T) {
	net := deployTestNetwork(t, 18, 4)
	u, err := NewDetectionUtility(net, FixedProb(0.4))
	if err != nil {
		t.Fatal(err)
	}
	hs, err := PlanHetero(u, mixedPeriods(t, 18))
	if err != nil {
		t.Fatal(err)
	}
	if err := hs.CheckFeasible(); err != nil {
		t.Fatal(err)
	}
	if hs.Hyperperiod() != 12 {
		t.Errorf("hyperperiod = %d, want lcm(2,4,6)=12", hs.Hyperperiod())
	}
	avg := hs.AverageUtility(u.NewOracle, 4)
	if avg <= 0 || avg > 1 {
		t.Errorf("avg utility %v out of (0,1]", avg)
	}
}

func TestPlanHeteroValidation(t *testing.T) {
	net := deployTestNetwork(t, 4, 2)
	u, err := NewDetectionUtility(net, FixedProb(0.4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlanHetero(nil, mixedPeriods(t, 4)); err == nil {
		t.Error("nil utility accepted")
	}
	if _, err := PlanHetero(u, mixedPeriods(t, 3)); err == nil {
		t.Error("period count mismatch accepted")
	}
	if _, err := PlanHeteroExact(nil, mixedPeriods(t, 4), 0); err == nil {
		t.Error("nil utility accepted by exact")
	}
	if _, err := PlanHeteroExact(u, mixedPeriods(t, 2), 0); err == nil {
		t.Error("period count mismatch accepted by exact")
	}
}

func TestPlanHeteroExactDominates(t *testing.T) {
	net := deployTestNetwork(t, 5, 2)
	u, err := NewDetectionUtility(net, FixedProb(0.5))
	if err != nil {
		t.Fatal(err)
	}
	periods := mixedPeriods(t, 5)
	greedy, err := PlanHetero(u, periods)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := PlanHeteroExact(u, periods, 0)
	if err != nil {
		t.Fatal(err)
	}
	gv := greedy.HyperperiodUtility(u.NewOracle)
	ev := exact.HyperperiodUtility(u.NewOracle)
	if gv > ev+1e-9 {
		t.Errorf("greedy %v exceeds exact %v", gv, ev)
	}
	if gv < ev/2-1e-9 {
		t.Errorf("greedy %v below half of exact %v", gv, ev)
	}
}

func TestNewOnlineGreedyPolicy(t *testing.T) {
	net := deployTestNetwork(t, 16, 4)
	u, err := NewDetectionUtility(net, FixedProb(0.4))
	if err != nil {
		t.Fatal(err)
	}
	period := sunnyPeriod(t)
	pol := NewOnlineGreedyPolicy(u, period)
	if pol.Budget != 4 {
		t.Errorf("budget = %d, want ceil(16/4)=4", pol.Budget)
	}
	res, err := RunSimulation(SimConfig{
		NumSensors: 16,
		Slots:      32,
		Policy:     pol,
		Charging:   DeterministicCharging{Period: period},
		Factory:    NewInstanceOracleFactory(u),
		Targets:    4,
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AverageUtility <= 0 {
		t.Error("online policy produced zero utility")
	}
	// The online policy with the matched budget tracks the offline
	// greedy schedule closely under deterministic charging.
	planner, err := NewPlanner(u, period)
	if err != nil {
		t.Fatal(err)
	}
	sched := mustPlan(t, planner, PlanRequest{Algorithm: AlgorithmGreedy}).Schedule
	offline, err := Simulate(planner, sched, 32, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.AverageUtility < 0.8*offline.AverageUtility {
		t.Errorf("online %v far below offline %v", res.AverageUtility, offline.AverageUtility)
	}
	if math.IsNaN(res.AverageUtility) {
		t.Error("NaN utility")
	}
}

func TestSimulateHeteroFacade(t *testing.T) {
	net := deployTestNetwork(t, 6, 2)
	u, err := NewDetectionUtility(net, FixedProb(0.5))
	if err != nil {
		t.Fatal(err)
	}
	periods := mixedPeriods(t, 6)
	hs, err := PlanHetero(u, periods)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateHetero(u, hs, periods, 2*hs.Hyperperiod(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.ActivationsDenied != 0 {
		t.Errorf("denied = %d", res.ActivationsDenied)
	}
	want := 2 * hs.HyperperiodUtility(u.NewOracle)
	if math.Abs(res.TotalUtility-want) > 1e-9 {
		t.Errorf("simulated %v != analytic %v", res.TotalUtility, want)
	}
	if _, err := SimulateHetero(nil, hs, periods, 4, 1, 1); err == nil {
		t.Error("nil utility accepted")
	}
}
