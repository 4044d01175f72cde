package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"cool/internal/solar"
)

func TestFigureValidate(t *testing.T) {
	f := &Figure{ID: "x"}
	if err := f.Render(&bytes.Buffer{}); err == nil {
		t.Error("empty figure rendered")
	}
	f.Series = []Series{{Label: "a", X: []float64{1}, Y: []float64{1, 2}}}
	if err := f.Render(&bytes.Buffer{}); err == nil {
		t.Error("ragged series rendered")
	}
	if err := f.WriteCSV(&bytes.Buffer{}); err == nil {
		t.Error("ragged series written to CSV")
	}
}

func TestFigureRenderSharedGrid(t *testing.T) {
	f := &Figure{
		ID: "t", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Label: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Label: "b", X: []float64{1, 2}, Y: []float64{30, 40}},
		},
		Notes: []string{"hello"},
	}
	var buf bytes.Buffer
	if err := f.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== t: demo ==", "a", "b", "note: hello", "10.000000", "40.000000"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestFigureRenderSeparateGrids(t *testing.T) {
	f := &Figure{
		ID: "t", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Label: "a", X: []float64{1}, Y: []float64{10}},
			{Label: "b", X: []float64{1, 2}, Y: []float64{30, 40}},
		},
	}
	var buf bytes.Buffer
	if err := f.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "-- a --") || !strings.Contains(buf.String(), "-- b --") {
		t.Errorf("per-series blocks missing:\n%s", buf.String())
	}
}

func TestFigureCSV(t *testing.T) {
	f := &Figure{
		ID: "t", XLabel: "x", YLabel: "y",
		Series: []Series{{Label: "a", X: []float64{1.5}, Y: []float64{2.5}}},
	}
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "series,x,y\na,1.5,2.5\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestFindSeries(t *testing.T) {
	f := &Figure{Series: []Series{{Label: "a"}, {Label: "b"}}}
	if f.FindSeries("b") == nil || f.FindSeries("z") != nil {
		t.Error("FindSeries wrong")
	}
}

func TestFig7ShapesAndPatterns(t *testing.T) {
	fig, err := Fig7(Fig7Config{
		Days:     []solar.Weather{solar.WeatherSunny},
		Interval: 2 * time.Minute,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d, want 4 (lux+voltage per node)", len(fig.Series))
	}
	lux := fig.FindSeries("node5-lux-klx")
	volt := fig.FindSeries("node5-voltage")
	if lux == nil || volt == nil {
		t.Fatal("missing node5 series")
	}
	// Figure-7 phenomenology: lux spans a wide range, voltage a narrow
	// band.
	luxMin, luxMax := minMax(lux.Y)
	vMin, vMax := minMax(volt.Y)
	if luxMax < 10*luxMin+1 {
		t.Errorf("lux range too narrow: [%v, %v]", luxMin, luxMax)
	}
	if vMin < 2.0 || vMax > 3.1 {
		t.Errorf("voltage band wrong: [%v, %v]", vMin, vMax)
	}
	// Notes include estimated patterns.
	joined := strings.Join(fig.Notes, "\n")
	if !strings.Contains(joined, "median Tr=") {
		t.Errorf("notes missing pattern estimates: %v", fig.Notes)
	}
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func TestFig8SingleTargetMatchesPaperNumbers(t *testing.T) {
	fig, err := Fig8(Fig8Config{Targets: 1})
	if err != nil {
		t.Fatal(err)
	}
	greedy := fig.FindSeries("greedy-avg-utility")
	bound := fig.FindSeries("upper-bound")
	if greedy == nil || bound == nil {
		t.Fatal("missing series")
	}
	if len(greedy.X) != 5 {
		t.Fatalf("points = %d, want 5", len(greedy.X))
	}
	// Shape checks against the paper: at n=100 both the greedy schedule
	// and the bound are within a whisker of 1 (the paper measured
	// 0.9834 vs 0.99938 on its real testbed; the idealized analytic run
	// hugs the bound even closer).
	last := len(greedy.Y) - 1
	if greedy.Y[last] < 0.99 {
		t.Errorf("greedy(n=100) = %.6f, want near 1 (paper: 0.983408764 measured)", greedy.Y[last])
	}
	if bound.Y[last] < 0.999 || bound.Y[last] > 1 {
		t.Errorf("bound(n=100) = %.6f, want ~0.9994..1", bound.Y[last])
	}
	// Curves increase with n and greedy stays below the bound.
	for i := range greedy.Y {
		if greedy.Y[i] > bound.Y[i]+1e-9 {
			t.Errorf("greedy above bound at n=%v", greedy.X[i])
		}
		if i > 0 && greedy.Y[i] < greedy.Y[i-1]-1e-9 {
			t.Errorf("greedy not monotone at n=%v", greedy.X[i])
		}
	}
}

// TestFig8SimulatedTestbedGap: the mixed-weather 30-day simulation
// falls below the analytic greedy value and the bound — reproducing the
// paper's measured-below-bound gap.
func TestFig8SimulatedTestbedGap(t *testing.T) {
	fig, err := Fig8(Fig8Config{
		Targets:      1,
		SensorCounts: []int{40, 100},
		SimulateDays: 10,
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	simSeries := fig.FindSeries("simulated-30day")
	greedy := fig.FindSeries("greedy-avg-utility")
	bound := fig.FindSeries("upper-bound")
	if simSeries == nil {
		t.Fatal("simulated series missing")
	}
	for i := range simSeries.Y {
		if simSeries.Y[i] >= greedy.Y[i] {
			t.Errorf("n=%v: simulated %.6f not below analytic %.6f",
				simSeries.X[i], simSeries.Y[i], greedy.Y[i])
		}
		if simSeries.Y[i] >= bound.Y[i] {
			t.Errorf("n=%v: simulated %.6f above bound", simSeries.X[i], simSeries.Y[i])
		}
		if simSeries.Y[i] < 0.5 {
			t.Errorf("n=%v: simulated %.6f below the paper's observed floor", simSeries.X[i], simSeries.Y[i])
		}
	}
}

func TestFig8ExactOverlay(t *testing.T) {
	fig, err := Fig8(Fig8Config{
		Targets:      2,
		SensorCounts: []int{4, 6, 8},
		ExactUpTo:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	exact := fig.FindSeries("exact-optimum")
	greedy := fig.FindSeries("greedy-avg-utility")
	if exact == nil {
		t.Fatal("exact overlay missing")
	}
	if len(exact.X) != 3 {
		t.Fatalf("exact points = %d, want 3", len(exact.X))
	}
	for i := range exact.Y {
		if greedy.Y[i] > exact.Y[i]+1e-9 {
			t.Errorf("greedy exceeds exact at n=%v", exact.X[i])
		}
		if greedy.Y[i] < exact.Y[i]/2-1e-9 {
			t.Errorf("greedy below half of exact at n=%v", exact.X[i])
		}
	}
}

func TestFig8Validation(t *testing.T) {
	if _, err := Fig8(Fig8Config{Targets: -1}); err == nil {
		t.Error("negative targets accepted")
	}
	if _, err := Fig8(Fig8Config{DetectP: 2}); err == nil {
		t.Error("bad probability accepted")
	}
	if _, err := Fig8(Fig8Config{SensorCounts: []int{0}}); err == nil {
		t.Error("zero sensor count accepted")
	}
	if _, err := Fig8(Fig8Config{Rho: 2.5}); err == nil {
		t.Error("non-integral rho accepted")
	}
}

func TestFig8AllFourSubfigures(t *testing.T) {
	figs, err := Fig8All(Fig8Config{SensorCounts: []int{20, 40}})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 {
		t.Fatalf("subfigures = %d", len(figs))
	}
	ids := map[string]bool{}
	for _, f := range figs {
		ids[f.ID] = true
	}
	for _, want := range []string{"fig8a", "fig8b", "fig8c", "fig8d"} {
		if !ids[want] {
			t.Errorf("missing %s", want)
		}
	}
}

func TestFig9SmallScaleShape(t *testing.T) {
	fig, err := Fig9(Fig9Config{
		SensorCounts: []int{60, 120},
		TargetCounts: []int{5, 10},
		Repeats:      2,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	small := fig.FindSeries("n=60")
	big := fig.FindSeries("n=120")
	if small == nil || big == nil {
		t.Fatal("missing series")
	}
	for i := range small.Y {
		// More sensors dominate (the paper's headline shape).
		if big.Y[i] < small.Y[i] {
			t.Errorf("n=120 (%v) below n=60 (%v) at m=%v", big.Y[i], small.Y[i], small.X[i])
		}
		// 1/2-approximation floor (utility normalized to <=1 per target).
		if small.Y[i] < 0 || small.Y[i] > 1 || big.Y[i] > 1 {
			t.Errorf("utility out of range at m=%v", small.X[i])
		}
	}
}

func TestFig9Validation(t *testing.T) {
	if _, err := Fig9(Fig9Config{FieldSide: -1}); err == nil {
		t.Error("negative field accepted")
	}
	if _, err := Fig9(Fig9Config{DetectP: 2}); err == nil {
		t.Error("bad probability accepted")
	}
	if _, err := Fig9(Fig9Config{Rho: 2.2}); err == nil {
		t.Error("bad rho accepted")
	}
}

func TestAblationPolicies(t *testing.T) {
	fig, err := AblationPolicies(AblationConfig{Sensors: 40, Targets: 6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var greedyVal, firstSlotVal float64
	for _, s := range fig.Series {
		switch s.Label {
		case "greedy":
			greedyVal = s.Y[0]
		case "first-slot":
			firstSlotVal = s.Y[0]
		}
	}
	if greedyVal <= 0 {
		t.Fatal("greedy utility missing")
	}
	if firstSlotVal >= greedyVal {
		t.Errorf("first-slot (%v) should lose to greedy (%v)", firstSlotVal, greedyVal)
	}
}

func TestAblationRhoMonotone(t *testing.T) {
	fig, err := AblationRho(AblationConfig{Sensors: 40, Targets: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	if len(s.X) != 6 {
		t.Fatalf("points = %d", len(s.X))
	}
	// Faster recharge (smaller rho) never hurts: utility at rho=1/3 must
	// be >= utility at rho=5.
	if s.Y[0] < s.Y[len(s.Y)-1] {
		t.Errorf("rho=1/3 utility %v below rho=5 utility %v", s.Y[0], s.Y[len(s.Y)-1])
	}
}

func TestRandomChargingExperiment(t *testing.T) {
	fig, err := RandomChargingExperiment(AblationConfig{Sensors: 30, Targets: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s := fig.FindSeries("simulated-avg-utility")
	if s == nil || len(s.Y) != 5 {
		t.Fatal("missing simulated series")
	}
	for i, y := range s.Y {
		if y <= 0 || y > 1 {
			t.Errorf("point %d utility %v out of (0,1]", i, y)
		}
	}
}

// TestExperimentsDeterministic: every experiment is bit-for-bit
// reproducible from its seed — the property EXPERIMENTS.md's recorded
// numbers rely on.
func TestExperimentsDeterministic(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		fig9, err := Fig9(Fig9Config{
			SensorCounts: []int{60},
			TargetCounts: []int{5, 10},
			Repeats:      2,
			Seed:         5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := fig9.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		fig8, err := Fig8(Fig8Config{Targets: 1, SensorCounts: []int{20, 40}, SimulateDays: 3, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if err := fig8.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		fig7, err := Fig7(Fig7Config{Days: []solar.Weather{solar.WeatherSunny}, Interval: 10 * time.Minute, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if err := fig7.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Error("experiment output not deterministic across runs")
	}
}
