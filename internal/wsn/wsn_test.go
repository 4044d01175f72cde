package wsn

import (
	"errors"
	"math"
	"testing"

	"cool/internal/geometry"
	"cool/internal/stats"
)

func mustNetwork(t *testing.T, sensors []Sensor, targets []Target) *Network {
	t.Helper()
	n, err := NewNetwork(sensors, targets)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func lineNetwork(t *testing.T) *Network {
	// Sensors at x = 0, 10, 20 with range 6; targets at x = 3, 15, 40.
	t.Helper()
	sensors := []Sensor{
		{ID: 0, Pos: geometry.Point{X: 0}, Range: 6},
		{ID: 1, Pos: geometry.Point{X: 10}, Range: 6},
		{ID: 2, Pos: geometry.Point{X: 20}, Range: 6},
	}
	targets := []Target{
		{ID: 0, Pos: geometry.Point{X: 3}, Weight: 1},
		{ID: 1, Pos: geometry.Point{X: 15}, Weight: 2},
		{ID: 2, Pos: geometry.Point{X: 40}, Weight: 1},
	}
	return mustNetwork(t, sensors, targets)
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(nil, nil); !errors.Is(err, ErrNoSensors) {
		t.Errorf("empty network error = %v", err)
	}
	if _, err := NewNetwork([]Sensor{{ID: 1, Range: 1}}, nil); err == nil {
		t.Error("non-ordinal sensor ID accepted")
	}
	if _, err := NewNetwork([]Sensor{{ID: 0, Range: 0}}, nil); err == nil {
		t.Error("zero range accepted")
	}
	if _, err := NewNetwork(
		[]Sensor{{ID: 0, Range: 1}},
		[]Target{{ID: 1, Weight: 1}},
	); err == nil {
		t.Error("non-ordinal target ID accepted")
	}
	if _, err := NewNetwork(
		[]Sensor{{ID: 0, Range: 1}},
		[]Target{{ID: 0, Weight: 0}},
	); err == nil {
		t.Error("zero weight accepted")
	}
}

func TestCoverageRelation(t *testing.T) {
	n := lineNetwork(t)
	if got := n.Coverers(0); len(got) != 1 || got[0] != 0 {
		t.Errorf("Coverers(0) = %v, want [0]", got)
	}
	if got := n.Coverers(1); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Coverers(1) = %v, want [1 2]", got)
	}
	if got := n.Coverers(2); len(got) != 0 {
		t.Errorf("Coverers(2) = %v, want empty", got)
	}
	for i, want := range []int{0, 1, 1} {
		if got := n.CoveredTargets(i); len(got) != 1 || got[0] != want {
			t.Errorf("CoveredTargets(%d) = %v, want [%d]", i, got, want)
		}
	}
	if got := n.UncoveredTargets(); len(got) != 1 || got[0] != 2 {
		t.Errorf("UncoveredTargets = %v, want [2]", got)
	}
}

func TestSensorFootprintOverride(t *testing.T) {
	s := Sensor{
		ID:  0,
		Pos: geometry.Point{},
		Footprint: geometry.Sector{
			Center: geometry.Point{}, Radius: 10, Heading: 0, HalfAngle: math.Pi / 4,
		},
	}
	if !s.Region().Contains(geometry.Point{X: 5, Y: 0}) {
		t.Error("sector footprint should cover on-axis point")
	}
	if s.Region().Contains(geometry.Point{X: -5, Y: 0}) {
		t.Error("sector footprint should not cover behind")
	}
	// Footprint-only sensors pass validation even with Range == 0.
	if _, err := NewNetwork([]Sensor{s}, nil); err != nil {
		t.Errorf("footprint-only sensor rejected: %v", err)
	}
}

func TestAccessorsCopy(t *testing.T) {
	n := lineNetwork(t)
	s := n.Sensors()
	s[0].Range = 999
	if n.Sensor(0).Range == 999 {
		t.Error("Sensors() does not copy")
	}
	tg := n.Targets()
	tg[0].Weight = 999
	if n.Target(0).Weight == 999 {
		t.Error("Targets() does not copy")
	}
	if n.NumSensors() != 3 || n.NumTargets() != 3 {
		t.Error("counts wrong")
	}
}

func TestDeployValidation(t *testing.T) {
	field := geometry.NewRect(geometry.Point{}, geometry.Point{X: 100, Y: 100})
	rng := stats.NewRNG(1)
	bad := []DeployConfig{
		{Field: field, Sensors: 0, Targets: 1, Range: 10},
		{Field: field, Sensors: 5, Targets: -1, Range: 10},
		{Field: field, Sensors: 5, Targets: 1, Range: 0},
		{Field: geometry.Rect{}, Sensors: 5, Targets: 1, Range: 10},
		{Field: field, Sensors: 5, Targets: 1, Range: 10, Layout: Layout(99)},
		{Field: field, Sensors: 5, Targets: 1, Range: 10, TargetWeight: -1},
	}
	for i, cfg := range bad {
		if _, err := Deploy(cfg, rng); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := Deploy(DeployConfig{Field: field, Sensors: 1, Targets: 0, Range: 1}, nil); err == nil {
		t.Error("nil RNG accepted")
	}
}

func TestDeployUniform(t *testing.T) {
	field := geometry.NewRect(geometry.Point{}, geometry.Point{X: 100, Y: 100})
	n, err := Deploy(DeployConfig{
		Field: field, Sensors: 50, Targets: 10, Range: 30,
	}, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if n.NumSensors() != 50 || n.NumTargets() != 10 {
		t.Fatalf("deployed %d/%d", n.NumSensors(), n.NumTargets())
	}
	for _, s := range n.Sensors() {
		if !field.Contains(s.Pos) {
			t.Errorf("sensor %d outside field: %v", s.ID, s.Pos)
		}
	}
	for _, tg := range n.Targets() {
		if !field.Contains(tg.Pos) {
			t.Errorf("target %d outside field: %v", tg.ID, tg.Pos)
		}
		if tg.Weight != 1 {
			t.Errorf("default weight = %v", tg.Weight)
		}
	}
}

func TestDeployDeterministic(t *testing.T) {
	field := geometry.NewRect(geometry.Point{}, geometry.Point{X: 100, Y: 100})
	cfg := DeployConfig{Field: field, Sensors: 20, Targets: 5, Range: 25}
	a, err := Deploy(cfg, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Deploy(cfg, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if a.Sensor(i).Pos != b.Sensor(i).Pos {
			t.Fatal("same seed produced different deployments")
		}
	}
}

func TestDeployGrid(t *testing.T) {
	field := geometry.NewRect(geometry.Point{}, geometry.Point{X: 100, Y: 100})
	n, err := Deploy(DeployConfig{
		Field: field, Sensors: 9, Targets: 0, Range: 10, Layout: LayoutGrid,
	}, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	// A 3x3 grid in a 100x100 field: sensors at 16.67, 50, 83.33.
	want := geometry.Point{X: 100.0 / 6, Y: 100.0 / 6}
	if got := n.Sensor(0).Pos; got.Dist(want) > 1e-9 {
		t.Errorf("grid sensor 0 at %v, want %v", got, want)
	}
	seen := make(map[geometry.Point]bool)
	for _, s := range n.Sensors() {
		if seen[s.Pos] {
			t.Error("grid placed two sensors at the same point")
		}
		seen[s.Pos] = true
	}
}

func TestDeployClustered(t *testing.T) {
	field := geometry.NewRect(geometry.Point{}, geometry.Point{X: 100, Y: 100})
	n, err := Deploy(DeployConfig{
		Field: field, Sensors: 100, Targets: 0, Range: 10,
		Layout: LayoutClustered, Clusters: 2, ClusterStd: 3,
	}, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range n.Sensors() {
		clamped := field.Clamp(s.Pos)
		if clamped != s.Pos {
			t.Errorf("clustered sensor %d escaped the field: %v", s.ID, s.Pos)
		}
	}
}

func TestLayoutString(t *testing.T) {
	if LayoutUniform.String() != "uniform" || LayoutGrid.String() != "grid" ||
		LayoutClustered.String() != "clustered" {
		t.Error("layout names wrong")
	}
	if Layout(42).String() != "Layout(42)" {
		t.Error("unknown layout name wrong")
	}
}

func TestAllCoverNetwork(t *testing.T) {
	n, err := AllCoverNetwork(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		if got := len(n.Coverers(j)); got != 10 {
			t.Errorf("target %d covered by %d sensors, want all 10", j, got)
		}
	}
	if _, err := AllCoverNetwork(0, 1); err == nil {
		t.Error("zero sensors accepted")
	}
	if _, err := AllCoverNetwork(1, -1); err == nil {
		t.Error("negative targets accepted")
	}
}

func TestBuildDetectionUtilityFixedProb(t *testing.T) {
	n := lineNetwork(t)
	u, err := BuildDetectionUtility(n, FixedProb(0.4))
	if err != nil {
		t.Fatal(err)
	}
	// Activating sensor 1 covers only target 1 (weight 2): U = 2*0.4.
	if got := u.Eval([]int{1}); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("U({1}) = %v, want 0.8", got)
	}
	// All sensors: target0: 0.4, target1: 2*(1-0.36) = 1.28, target2: 0.
	if got := u.Eval([]int{0, 1, 2}); math.Abs(got-(0.4+1.28)) > 1e-12 {
		t.Errorf("U(all) = %v, want 1.68", got)
	}
}

func TestBuildDetectionUtilityErrors(t *testing.T) {
	n := lineNetwork(t)
	if _, err := BuildDetectionUtility(nil, FixedProb(0.5)); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := BuildDetectionUtility(n, nil); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := BuildDetectionUtility(n, FixedProb(1.5)); err == nil {
		t.Error("out-of-range probability accepted")
	}
}

func TestDistanceDecay(t *testing.T) {
	s := Sensor{ID: 0, Pos: geometry.Point{}, Range: 10}
	m := DistanceDecay{PMax: 0.8, Gamma: 1}
	if got := m.Prob(s, Target{Pos: geometry.Point{}}); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("prob at distance 0 = %v, want 0.8", got)
	}
	if got := m.Prob(s, Target{Pos: geometry.Point{X: 5}}); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("prob at half range = %v, want 0.4", got)
	}
	if got := m.Prob(s, Target{Pos: geometry.Point{X: 10}}); got != 0 {
		t.Errorf("prob at range edge = %v, want 0", got)
	}
	if got := m.Prob(s, Target{Pos: geometry.Point{X: 15}}); got != 0 {
		t.Errorf("prob beyond range = %v, want 0", got)
	}
	quad := DistanceDecay{PMax: 1, Gamma: 2}
	if got := quad.Prob(s, Target{Pos: geometry.Point{X: 5}}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("quadratic decay = %v, want 0.25", got)
	}
}

func TestBuildAreaUtility(t *testing.T) {
	sensors := []Sensor{
		{ID: 0, Pos: geometry.Point{X: 30, Y: 50}, Range: 20},
		{ID: 1, Pos: geometry.Point{X: 70, Y: 50}, Range: 20},
	}
	n := mustNetwork(t, sensors, nil)
	omega := geometry.NewRect(geometry.Point{}, geometry.Point{X: 100, Y: 100})
	u, sub, err := BuildAreaUtility(n, omega, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sub == nil || len(sub.Cells) < 3 {
		t.Fatalf("expected ≥3 cells, got %v", sub)
	}
	full := u.Eval([]int{0, 1})
	wantFull := 2 * math.Pi * 400 // two disjoint disks of radius 20
	if math.Abs(full-wantFull)/wantFull > 0.02 {
		t.Errorf("full coverage = %v, want ~%v", full, wantFull)
	}
	if one := u.Eval([]int{0}); math.Abs(one-full/2)/full > 0.02 {
		t.Errorf("single coverage = %v, want ~%v", one, full/2)
	}
}

func TestBuildAreaUtilityWeighted(t *testing.T) {
	sensors := []Sensor{{ID: 0, Pos: geometry.Point{X: 25, Y: 50}, Range: 10}}
	n := mustNetwork(t, sensors, nil)
	omega := geometry.NewRect(geometry.Point{}, geometry.Point{X: 100, Y: 100})
	double := func(p geometry.Point) float64 {
		if p.X < 50 {
			return 2
		}
		return 1
	}
	u, _, err := BuildAreaUtility(n, omega, 200, double)
	if err != nil {
		t.Fatal(err)
	}
	got := u.Eval([]int{0})
	want := 2 * math.Pi * 100
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("weighted area = %v, want ~%v", got, want)
	}
	// A weight function returning 0 must be rejected.
	if _, _, err := BuildAreaUtility(n, omega, 50, func(geometry.Point) float64 { return 0 }); err == nil {
		t.Error("zero weight accepted")
	}
	if _, _, err := BuildAreaUtility(nil, omega, 50, nil); err == nil {
		t.Error("nil network accepted")
	}
}

func TestBuildTargetCountUtility(t *testing.T) {
	n := lineNetwork(t)
	u, err := BuildTargetCountUtility(n)
	if err != nil {
		t.Fatal(err)
	}
	// Target 2 is uncoverable and must be excluded.
	if got := u.TotalValue(); got != 3 {
		t.Errorf("TotalValue = %v, want 3 (weights 1+2)", got)
	}
	if got := u.Eval([]int{1}); got != 2 {
		t.Errorf("U({1}) = %v, want 2", got)
	}
	if _, err := BuildTargetCountUtility(nil); err == nil {
		t.Error("nil network accepted")
	}
}
