package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"cool/internal/energy"
	"cool/internal/stats"
	"cool/internal/submodular"
)

// The golden-schedule corpus pins the engines' exact output — the
// per-sensor slot assignment and the period utility — for a spread of
// seeded scenarios across both utility models, both ρ regimes and the
// structural edge cases (zero-coverage sensors, a single target, n <
// T). Every engine must reproduce the committed goldens byte for byte:
// the schedules are the library's determinism contract, and a kernel
// or refresh change that alters any tie-break shows up here as a
// one-line diff instead of a silent quality drift.
//
// Regenerate after an *intentional* contract change with
//
//	go test ./internal/core -run TestGoldenSchedules -update
//
// and review the diff: an unexplained assignment change means a
// tie-break moved, which is a bug by the determinism contract even if
// the utility is unchanged. Utilities are stored as exact float64
// values (encoding/json round-trips them bit for bit); they are
// reproducible on any platform where the compiler does not fuse the
// oracle arithmetic (all first-class Go platforms evaluate these
// expressions identically — no explicit FMA patterns appear in the
// oracle code).
var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenScenario deterministically specifies one corpus instance.
type goldenScenario struct {
	Name string `json:"name"`
	// Model selects the utility family: "detection" (probabilistic
	// multi-target, Section III) or "coverage" (weighted set cover).
	Model string `json:"model"`
	// N sensors, M targets/items, Rho charging ratio, Seed for the
	// deterministic construction.
	N    int     `json:"n"`
	M    int     `json:"m"`
	Rho  float64 `json:"rho"`
	Seed uint64  `json:"seed"`
	// Cover is the per-(sensor, target) incidence probability.
	Cover float64 `json:"cover"`
	// Dead is the number of leading sensors covering nothing — their
	// marginal is identically zero in every slot, so every placement is
	// a tie and the lowest-(v, t) rule is all that orders them.
	Dead int `json:"dead"`
}

// goldenRecord is what the corpus commits per scenario.
type goldenRecord struct {
	Scenario   goldenScenario `json:"scenario"`
	Mode       string         `json:"mode"`
	Period     int            `json:"period"`
	Assignment []int          `json:"assignment"`
	Utility    float64        `json:"utility"`
}

func goldenScenarios() []goldenScenario {
	var s []goldenScenario
	// Detection model, placement regime (ρ ≥ 1) across period lengths.
	for i, rho := range []float64{1, 2, 4, 7} {
		s = append(s, goldenScenario{
			Name: fmt.Sprintf("detect-place-rho%g", rho), Model: "detection",
			N: 18 + 3*i, M: 5, Rho: rho, Seed: uint64(100 + i), Cover: 0.5,
		})
	}
	// Detection model, removal regime (ρ ≤ 1).
	for i, rho := range []float64{0.5, 0.25, 1.0 / 3.0} {
		s = append(s, goldenScenario{
			Name: fmt.Sprintf("detect-remove-rho1over%d", i+2), Model: "detection",
			N: 12 + 2*i, M: 4, Rho: rho, Seed: uint64(200 + i), Cover: 0.6,
		})
	}
	// Coverage model, both regimes.
	for i, rho := range []float64{1, 3, 6} {
		s = append(s, goldenScenario{
			Name: fmt.Sprintf("cover-place-rho%g", rho), Model: "coverage",
			N: 16 + 4*i, M: 8, Rho: rho, Seed: uint64(300 + i), Cover: 0.4,
		})
	}
	for i, rho := range []float64{0.5, 0.25} {
		s = append(s, goldenScenario{
			Name: fmt.Sprintf("cover-remove-rho1over%d", i+2), Model: "coverage",
			N: 10 + 2*i, M: 6, Rho: rho, Seed: uint64(400 + i), Cover: 0.5,
		})
	}
	// Edge cases.
	s = append(s,
		// Zero-coverage sensors: a third of the ground set has zero
		// marginal everywhere — pure tie-break stress.
		goldenScenario{Name: "detect-dead-third", Model: "detection",
			N: 21, M: 6, Rho: 3, Seed: 500, Cover: 0.5, Dead: 7},
		goldenScenario{Name: "cover-dead-third", Model: "coverage",
			N: 15, M: 5, Rho: 2, Seed: 501, Cover: 0.5, Dead: 5},
		goldenScenario{Name: "detect-dead-removal", Model: "detection",
			N: 12, M: 4, Rho: 0.5, Seed: 502, Cover: 0.6, Dead: 4},
		// Single target: after the first placement every other sensor
		// fights over one survival product.
		goldenScenario{Name: "detect-single-target", Model: "detection",
			N: 20, M: 1, Rho: 4, Seed: 510, Cover: 0.8},
		goldenScenario{Name: "cover-single-item", Model: "coverage",
			N: 16, M: 1, Rho: 2, Seed: 511, Cover: 0.7},
		// Fewer sensors than slots: most slots stay empty.
		goldenScenario{Name: "detect-sparse-slots", Model: "detection",
			N: 5, M: 3, Rho: 11, Seed: 520, Cover: 0.7},
		// Dense incidence: every sensor covers almost every target.
		goldenScenario{Name: "detect-dense", Model: "detection",
			N: 24, M: 6, Rho: 2, Seed: 530, Cover: 0.95},
		// Heavier removal instance exercising the loss heap deeper.
		goldenScenario{Name: "detect-remove-wide", Model: "detection",
			N: 30, M: 8, Rho: 0.2, Seed: 540, Cover: 0.4},
	)
	return s
}

// buildGoldenInstance compiles a scenario into a core.Instance. The
// construction consumes the RNG in a fixed order, so a scenario's
// instance is a pure function of its fields.
func buildGoldenInstance(t *testing.T, scn goldenScenario) Instance {
	t.Helper()
	rng := stats.NewRNG(scn.Seed)
	live := scn.N - scn.Dead
	if live <= 0 {
		t.Fatalf("%s: no live sensors", scn.Name)
	}
	var factory OracleFactory
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
		factory = func() submodular.RemovalOracle { return u.Oracle() }
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
		factory = func() submodular.RemovalOracle { return u.Oracle() }
	default:
		t.Fatalf("%s: unknown model %q", scn.Name, scn.Model)
	}
	p, err := energy.PeriodFromRho(scn.Rho)
	if err != nil {
		t.Fatalf("%s: %v", scn.Name, err)
	}
	return Instance{N: scn.N, Period: p, Factory: factory}
}

// goldenEngines returns the named engines. Every engine must produce
// the same schedule in both regimes.
func goldenEngines(in Instance) map[string]func() (*Schedule, error) {
	return map[string]func() (*Schedule, error){
		"Greedy":              func() (*Schedule, error) { return Greedy(in) },
		"ReferenceGreedy":     func() (*Schedule, error) { return ReferenceGreedy(in) },
		"Greedy-full-refresh": func() (*Schedule, error) { return Greedy(fullRefreshInstance(in)) },
	}
}

// fullRefreshInstance wraps every slot oracle of in in a noSparseOracle.
func fullRefreshInstance(in Instance) Instance {
	factory := in.Factory
	in.Factory = func() submodular.RemovalOracle { return noSparseOracle{factory()} }
	return in
}

// noSparseOracle hides the affected list of a wrapped oracle while
// forwarding its bulk marginals, forcing the climb onto the
// full-column refresh path.
type noSparseOracle struct {
	submodular.RemovalOracle
}

func (o noSparseOracle) BulkGain(out []float64) {
	o.RemovalOracle.(submodular.BulkGainer).BulkGain(out)
}

func (o noSparseOracle) BulkLoss(out []float64) {
	o.RemovalOracle.(submodular.BulkLosser).BulkLoss(out)
}

const goldenPath = "testdata/golden_schedules.json"

func TestGoldenSchedules(t *testing.T) {
	scenarios := goldenScenarios()

	if *updateGolden {
		var records []goldenRecord
		for _, scn := range scenarios {
			in := buildGoldenInstance(t, scn)
			sched, err := Greedy(in)
			if err != nil {
				t.Fatalf("%s: %v", scn.Name, err)
			}
			records = append(records, goldenRecord{
				Scenario:   scn,
				Mode:       sched.Mode().String(),
				Period:     sched.Period(),
				Assignment: sched.Assignment(),
				Utility:    sched.PeriodUtility(in.Factory),
			})
		}
		data, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d records", goldenPath, len(records))
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden corpus (run with -update to create): %v", err)
	}
	var records []goldenRecord
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatal(err)
	}
	if len(records) != len(scenarios) {
		t.Fatalf("golden corpus has %d records, scenarios list %d — regenerate with -update",
			len(records), len(scenarios))
	}

	for i, scn := range scenarios {
		rec := records[i]
		if rec.Scenario != scn {
			t.Fatalf("golden record %d is for %+v, want %+v — regenerate with -update",
				i, rec.Scenario, scn)
		}
		t.Run(scn.Name, func(t *testing.T) {
			in := buildGoldenInstance(t, scn)
			for name, run := range goldenEngines(in) {
				sched, err := run()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := sched.Mode().String(); got != rec.Mode {
					t.Errorf("%s: mode %s, golden %s", name, got, rec.Mode)
				}
				if got := sched.Period(); got != rec.Period {
					t.Errorf("%s: period %d, golden %d", name, got, rec.Period)
				}
				if got := sched.Assignment(); !assignmentsEqual(got, rec.Assignment) {
					t.Errorf("%s: assignment diverged from golden\n got %v\nwant %v",
						name, got, rec.Assignment)
				}
				// Exact float64 equality: the engines must not merely
				// tie on quality, they must compute the same number.
				if got := sched.PeriodUtility(in.Factory); got != rec.Utility {
					t.Errorf("%s: utility %v (bits %#x), golden %v (bits %#x)",
						name, got, float64bits(got), rec.Utility, float64bits(rec.Utility))
				}
				if err := sched.CheckFeasible(in.Period); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		})
	}
}

func assignmentsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func float64bits(f float64) uint64 { return math.Float64bits(f) }
