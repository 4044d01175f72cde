package experiments

import (
	"math"
	"testing"

	"cool/internal/core"
	"cool/internal/energy"
	"cool/internal/geometry"
	"cool/internal/stats"
	"cool/internal/submodular"
	"cool/internal/wsn"
)

// TestScheduleBitIdentityGridVsBrute is the end-to-end identity gate:
// the full pipeline — deployment → incidence → detection utility →
// greedy planner — must produce bit-identical schedules whether the
// incidence was built by the grid index or the brute-force scan. Any
// reordering of coverage edges would perturb the CSR value arrays,
// change float accumulation order, and surface here as a diverging
// argmax; all four planner variants are checked.
func TestScheduleBitIdentityGridVsBrute(t *testing.T) {
	period, err := energy.PeriodFromRho(7)
	if err != nil {
		t.Fatalf("PeriodFromRho: %v", err)
	}
	for _, layout := range []wsn.Layout{wsn.LayoutUniform, wsn.LayoutGrid, wsn.LayoutClustered} {
		net, err := wsn.Deploy(wsn.DeployConfig{
			Field:   geometry.NewRect(geometry.Point{}, geometry.Point{X: 300, Y: 300}),
			Sensors: 160,
			Targets: 48,
			Range:   60,
			Layout:  layout,
		}, stats.NewRNG(400+uint64(layout)))
		if err != nil {
			t.Fatalf("%v: Deploy: %v", layout, err)
		}
		sensors := net.Sensors()
		targets := net.Targets()
		gridNet, err := wsn.NewNetwork(sensors, targets)
		if err != nil {
			t.Fatalf("%v: NewNetwork: %v", layout, err)
		}
		bruteNet, err := wsn.NewNetworkBruteForce(sensors, targets)
		if err != nil {
			t.Fatalf("%v: NewNetworkBruteForce: %v", layout, err)
		}
		if !incidenceEqual(gridNet, bruteNet) {
			t.Fatalf("%v: incidence differs between constructions", layout)
		}
		for _, model := range []wsn.DetectionModel{
			wsn.FixedProb(0.4),
			wsn.DistanceDecay{PMax: 0.9, Gamma: 2},
		} {
			gridU, err := wsn.BuildDetectionUtility(gridNet, model)
			if err != nil {
				t.Fatalf("%v: BuildDetectionUtility(grid): %v", layout, err)
			}
			bruteU, err := wsn.BuildDetectionUtility(bruteNet, model)
			if err != nil {
				t.Fatalf("%v: BuildDetectionUtility(brute): %v", layout, err)
			}
			gridIn := core.Instance{
				N:       gridNet.NumSensors(),
				Period:  period,
				Factory: func() submodular.RemovalOracle { return gridU.Oracle() },
			}
			bruteIn := core.Instance{
				N:       bruteNet.NumSensors(),
				Period:  period,
				Factory: func() submodular.RemovalOracle { return bruteU.Oracle() },
			}
			type planner struct {
				name string
				run  func(core.Instance) (*core.Schedule, error)
			}
			for _, pl := range []planner{
				{"ReferenceGreedy", core.ReferenceGreedy},
				{"Greedy", core.Greedy},
			} {
				g, err := pl.run(gridIn)
				if err != nil {
					t.Fatalf("%v/%T/%s on grid network: %v", layout, model, pl.name, err)
				}
				b, err := pl.run(bruteIn)
				if err != nil {
					t.Fatalf("%v/%T/%s on brute network: %v", layout, model, pl.name, err)
				}
				if !assignEqual(g.Assignment(), b.Assignment()) {
					t.Errorf("%v/%T/%s: schedules differ between grid and brute incidence", layout, model, pl.name)
				}
				gv := g.PeriodUtility(gridIn.Factory)
				bv := b.PeriodUtility(bruteIn.Factory)
				if math.Float64bits(gv) != math.Float64bits(bv) {
					t.Errorf("%v/%T/%s: objective %v vs %v not bit-identical", layout, model, pl.name, gv, bv)
				}
			}
		}
	}
}

// incidenceEqual reports whether the two networks have exactly the same
// coverage relation: identical Coverers(j) for every target and
// identical CoveredTargets(i) for every sensor, element for element.
func incidenceEqual(a, b *wsn.Network) bool {
	if a.NumSensors() != b.NumSensors() || a.NumTargets() != b.NumTargets() {
		return false
	}
	for j := 0; j < a.NumTargets(); j++ {
		if !assignEqual(a.Coverers(j), b.Coverers(j)) {
			return false
		}
	}
	for i := 0; i < a.NumSensors(); i++ {
		if !assignEqual(a.CoveredTargets(i), b.CoveredTargets(i)) {
			return false
		}
	}
	return true
}
