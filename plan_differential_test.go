package cool

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"cool/internal/stats"
	"cool/internal/submodular"
)

// The facade contract: every greedy engine reachable through
// Planner.Plan reproduces the committed golden-schedule corpus *bit
// for bit* — same assignment, same exact float64 utility. The
// scenarios here reconstruct the corpus of internal/core/golden_test.go
// (same seeds, same RNG draw order), so the facade provably plans what
// the engines were pinned to.

// diffScenario mirrors the goldenScenario JSON of internal/core.
type diffScenario struct {
	Name  string  `json:"name"`
	Model string  `json:"model"`
	N     int     `json:"n"`
	M     int     `json:"m"`
	Rho   float64 `json:"rho"`
	Seed  uint64  `json:"seed"`
	Cover float64 `json:"cover"`
	Dead  int     `json:"dead"`
}

type diffRecord struct {
	Scenario   diffScenario `json:"scenario"`
	Mode       string       `json:"mode"`
	Period     int          `json:"period"`
	Assignment []int        `json:"assignment"`
	Utility    float64      `json:"utility"`
}

const diffGoldenPath = "internal/core/testdata/golden_schedules.json"

// buildDiffUtility replays the deterministic corpus construction: the
// RNG is consumed in exactly the order buildGoldenInstance uses, so
// the utilities here are the same objects the corpus was generated
// from.
func buildDiffUtility(t *testing.T, scn diffScenario) Utility {
	t.Helper()
	rng := stats.NewRNG(scn.Seed)
	live := scn.N - scn.Dead
	switch scn.Model {
	case "detection":
		targets := make([]submodular.DetectionTarget, scn.M)
		for i := range targets {
			probs := make(map[int]float64)
			for v := scn.Dead; v < scn.N; v++ {
				if rng.Bernoulli(scn.Cover) {
					probs[v] = rng.UniformRange(0.05, 0.95)
				}
			}
			if len(probs) == 0 {
				probs[scn.Dead+rng.Intn(live)] = 0.5
			}
			targets[i] = submodular.DetectionTarget{
				Weight: rng.UniformRange(0.5, 2),
				Probs:  probs,
			}
		}
		u, err := submodular.NewDetectionUtility(scn.N, targets)
		if err != nil {
			t.Fatalf("%s: %v", scn.Name, err)
		}
		return detectionUtility{u}
	case "coverage":
		items := make([]submodular.CoverageItem, scn.M)
		for i := range items {
			var covered []int
			for v := scn.Dead; v < scn.N; v++ {
				if rng.Bernoulli(scn.Cover) {
					covered = append(covered, v)
				}
			}
			if len(covered) == 0 {
				covered = []int{scn.Dead + rng.Intn(live)}
			}
			items[i] = submodular.CoverageItem{
				Value:     rng.UniformRange(0.5, 2),
				CoveredBy: covered,
			}
		}
		u, err := submodular.NewCoverageUtility(scn.N, items)
		if err != nil {
			t.Fatalf("%s: %v", scn.Name, err)
		}
		return coverageUtility{u}
	default:
		t.Fatalf("%s: unknown model %q", scn.Name, scn.Model)
		return nil
	}
}

func loadDiffRecords(t *testing.T) []diffRecord {
	t.Helper()
	data, err := os.ReadFile(diffGoldenPath)
	if err != nil {
		t.Fatalf("reading golden corpus: %v", err)
	}
	var records []diffRecord
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("empty golden corpus")
	}
	return records
}

// sameSchedule demands bitwise equality: identical assignments and an
// exactly equal (not merely close) period utility.
func sameSchedule(t *testing.T, label string, p *Planner, a, b *Schedule) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("%s: nil schedule (%v, %v)", label, a, b)
	}
	ai, bi := a.Assignment(), b.Assignment()
	if len(ai) != len(bi) {
		t.Fatalf("%s: assignment lengths %d vs %d", label, len(ai), len(bi))
	}
	for v := range ai {
		if ai[v] != bi[v] {
			t.Fatalf("%s: sensor %d assigned %d vs %d", label, v, ai[v], bi[v])
		}
	}
	ua, ub := p.PeriodUtility(a), p.PeriodUtility(b)
	if math.Float64bits(ua) != math.Float64bits(ub) {
		t.Fatalf("%s: utility %v (bits %#x) vs %v (bits %#x)",
			label, ua, math.Float64bits(ua), ub, math.Float64bits(ub))
	}
}

func TestPlanWrapperBitIdentity(t *testing.T) {
	records := loadDiffRecords(t)
	for _, rec := range records {
		rec := rec
		t.Run(rec.Scenario.Name, func(t *testing.T) {
			u := buildDiffUtility(t, rec.Scenario)
			period, err := PeriodFromRho(rec.Scenario.Rho)
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewPlanner(u, period)
			if err != nil {
				t.Fatal(err)
			}
			for _, req := range []PlanRequest{
				{Algorithm: AlgorithmGreedy},
				{Algorithm: AlgorithmLazyGreedy},
				{Algorithm: AlgorithmParallelLazyGreedy},
			} {
				res, err := p.Plan(req)
				if err != nil {
					t.Fatalf("%s: %v", req.Algorithm, err)
				}
				if res.Algorithm != req.Algorithm || res.Objective != ObjectiveUtility {
					t.Fatalf("%s: Plan echoed (%q, %v)", req.Algorithm, res.Algorithm, res.Objective)
				}
				sched := res.Schedule
				if sched.Mode().String() != rec.Mode || sched.Period() != rec.Period {
					t.Fatalf("%s: %v schedule of %d slots, golden %s of %d",
						req.Algorithm, sched.Mode(), sched.Period(), rec.Mode, rec.Period)
				}
				got := sched.Assignment()
				if len(got) != len(rec.Assignment) {
					t.Fatalf("%s: assignment length %d, golden %d", req.Algorithm, len(got), len(rec.Assignment))
				}
				for v := range got {
					if got[v] != rec.Assignment[v] {
						t.Fatalf("%s: sensor %d assigned %d, golden %d", req.Algorithm, v, got[v], rec.Assignment[v])
					}
				}
				if u := p.PeriodUtility(sched); math.Float64bits(u) != math.Float64bits(rec.Utility) {
					t.Fatalf("%s: utility %v (bits %#x), golden %v (bits %#x)", req.Algorithm,
						u, math.Float64bits(u), rec.Utility, math.Float64bits(rec.Utility))
				}
			}
		})
	}
}

func TestPlanRequestValidation(t *testing.T) {
	u, err := submodular.NewCoverageUtility(4, []submodular.CoverageItem{
		{Value: 1, CoveredBy: []int{0, 1}},
		{Value: 1, CoveredBy: []int{2, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	period, err := PeriodFromRho(2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanner(coverageUtility{u}, period)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := p.Plan(PlanRequest{Algorithm: "no-such-engine"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := p.Plan(PlanRequest{Objective: Objective(99)}); err == nil {
		t.Error("unknown objective accepted")
	}
	if _, err := p.Plan(PlanRequest{Algorithm: AlgorithmHEF}); err == nil {
		t.Error("lifetime algorithm accepted under utility objective")
	}
	if _, err := p.Plan(PlanRequest{Lifetime: &LifetimeOptions{}}); err == nil {
		t.Error("LifetimeOptions accepted under utility objective")
	}
	if _, err := p.Plan(PlanRequest{Objective: ObjectiveLifetime, Algorithm: AlgorithmGreedy}); err == nil {
		t.Error("utility algorithm accepted under lifetime objective")
	}

	// Defaults: empty request plans greedy/utility; empty algorithm
	// under the lifetime objective plans HEF.
	res, err := p.Plan(PlanRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgorithmGreedy || res.Objective != ObjectiveUtility || res.Schedule == nil {
		t.Errorf("zero request resolved to (%q, %v, schedule %v)", res.Algorithm, res.Objective, res.Schedule)
	}
	res, err = p.Plan(PlanRequest{Objective: ObjectiveLifetime})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgorithmHEF || res.Lifetime == nil || res.Schedule != nil {
		t.Errorf("lifetime request resolved to (%q, lifetime %v, schedule %v)",
			res.Algorithm, res.Lifetime, res.Schedule)
	}
}
