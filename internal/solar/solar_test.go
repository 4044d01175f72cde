package solar

import (
	"math"
	"testing"
	"time"

	"cool/internal/energy"
	"cool/internal/stats"
)

func newDay(t *testing.T, w Weather, panels int, seed uint64) *Day {
	t.Helper()
	d, err := NewDay(DayConfig{Weather: w, Panels: panels}, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWeatherString(t *testing.T) {
	cases := map[Weather]string{
		WeatherSunny:        "sunny",
		WeatherPartlyCloudy: "partly-cloudy",
		WeatherOvercast:     "overcast",
		WeatherRain:         "rain",
		Weather(0):          "Weather(0)",
	}
	for w, want := range cases {
		if got := w.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(w), got, want)
		}
	}
}

func TestNewDayValidation(t *testing.T) {
	rng := stats.NewRNG(1)
	if _, err := NewDay(DayConfig{Weather: WeatherSunny}, nil); err == nil {
		t.Error("nil RNG accepted")
	}
	bad := []DayConfig{
		{Weather: Weather(0)},
		{Weather: WeatherSunny, Panels: 9},
		{Weather: WeatherSunny, SunriseHour: 10, SunsetHour: 8},
		{Weather: WeatherSunny, PeakLux: -1},
	}
	for i, cfg := range bad {
		if _, err := NewDay(cfg, rng); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	d, err := NewDay(DayConfig{Weather: WeatherSunny}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := d.Config()
	if cfg.Panels != 1 || cfg.PeakLux != 80000 || cfg.SunriseHour != 5.5 || cfg.SunsetHour != 19 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
}

func TestElevation(t *testing.T) {
	if Elevation(3, 6, 18) != 0 || Elevation(20, 6, 18) != 0 {
		t.Error("night elevation should be 0")
	}
	if got := Elevation(12, 6, 18); math.Abs(got-1) > 1e-12 {
		t.Errorf("noon elevation = %v, want 1", got)
	}
	if got := Elevation(9, 6, 18); math.Abs(got-math.Sqrt(2)/2) > 1e-12 {
		t.Errorf("mid-morning elevation = %v", got)
	}
}

func TestLuxDayNightCycle(t *testing.T) {
	d := newDay(t, WeatherSunny, 1, 2)
	if lux := d.Lux(2); lux != 0 {
		t.Errorf("night lux = %v", lux)
	}
	noon := d.Lux(12.25)
	if noon < 50000 || noon > 100000 {
		t.Errorf("sunny noon lux = %v, want ~80000", noon)
	}
	morning := d.Lux(7)
	if morning >= noon {
		t.Errorf("morning lux %v not below noon %v", morning, noon)
	}
}

// TestLuxVariesVoltagePlateaus is the Figure-7 observation: light
// strength varies significantly within the day while the charging
// voltage stays in a tight band whenever the mote is harvesting.
func TestLuxVariesVoltagePlateaus(t *testing.T) {
	day := newDay(t, WeatherSunny, 2, 3)
	m, err := NewMote(MoteConfig{}, day)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := m.Trace(8, 8*time.Hour, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var luxes, volts []float64
	for _, s := range trace {
		luxes = append(luxes, s.Lux)
		volts = append(volts, s.Voltage)
	}
	luxSummary, err := stats.Summarize(luxes)
	if err != nil {
		t.Fatal(err)
	}
	vSummary, err := stats.Summarize(volts)
	if err != nil {
		t.Fatal(err)
	}
	if luxSummary.Std/luxSummary.Mean < 0.1 {
		t.Errorf("lux variation too small: %+v", luxSummary)
	}
	// Voltage bounded in the battery band and cycling within it.
	if vSummary.Min < 2.0 || vSummary.Max > 3.1 {
		t.Errorf("voltage out of band: %+v", vSummary)
	}
}

func TestPanelCurrentSaturates(t *testing.T) {
	d := newDay(t, WeatherSunny, 1, 4)
	low := d.PanelCurrent(5000)
	high := d.PanelCurrent(80000)
	higher := d.PanelCurrent(160000)
	if !(low < high && high < higher) {
		t.Error("panel current not increasing")
	}
	// Saturation: doubling lux from 80k adds less than 20%.
	if (higher-high)/high > 0.2 {
		t.Errorf("panel current not saturating: %v -> %v", high, higher)
	}
	if d.PanelCurrent(0) != 0 || d.PanelCurrent(-5) != 0 {
		t.Error("no-light current should be 0")
	}
	two := newDay(t, WeatherSunny, 2, 4)
	if got := two.PanelCurrent(20000); math.Abs(got-2*d.PanelCurrent(20000)) > 1e-9 {
		t.Error("two panels should double current")
	}
}

func TestPatternFor(t *testing.T) {
	tr, td, err := PatternFor(WeatherSunny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr != 45*time.Minute || td != 15*time.Minute {
		t.Errorf("sunny pattern = %v/%v, want 45m/15m", tr, td)
	}
	tr2, _, err := PatternFor(WeatherSunny, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr2 >= tr {
		t.Error("second panel should shorten recharge")
	}
	trOvercast, tdOvercast, err := PatternFor(WeatherOvercast, 1)
	if err != nil {
		t.Fatal(err)
	}
	if trOvercast <= tr {
		t.Error("overcast recharge should be longer than sunny")
	}
	if tdOvercast != td {
		t.Error("discharge time should be weather-independent")
	}
	if _, _, err := PatternFor(Weather(0), 1); err == nil {
		t.Error("unknown weather accepted")
	}
	if _, _, err := PatternFor(WeatherSunny, 0); err == nil {
		t.Error("zero panels accepted")
	}
}

func TestNewMoteValidation(t *testing.T) {
	day := newDay(t, WeatherSunny, 1, 6)
	if _, err := NewMote(MoteConfig{}, nil); err == nil {
		t.Error("nil day accepted")
	}
	if _, err := NewMote(MoteConfig{ActiveDrawMA: -1}, day); err == nil {
		t.Error("negative draw accepted")
	}
	if _, err := NewMote(MoteConfig{FullVoltage: 2, EmptyVoltage: 3}, day); err == nil {
		t.Error("inverted voltage band accepted")
	}
}

func TestMoteTraceValidation(t *testing.T) {
	day := newDay(t, WeatherSunny, 1, 7)
	m, err := NewMote(MoteConfig{}, day)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Trace(8, 0, time.Minute); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := m.Trace(8, time.Hour, 0); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := m.Trace(8, time.Minute, time.Hour); err == nil {
		t.Error("interval > duration accepted")
	}
}

// TestMoteSawtoothPatternMatchesPaper: simulate a sunny daytime window
// and verify the estimated charging pattern lands near the paper's
// measured Tr ≈ 45 min, Td = 15 min (ρ ≈ 3).
func TestMoteSawtoothPatternMatchesPaper(t *testing.T) {
	day := newDay(t, WeatherSunny, 1, 8)
	m, err := NewMote(MoteConfig{NoiseVolts: 1e-6}, day)
	if err != nil {
		t.Fatal(err)
	}
	// Midday window where irradiance is near peak.
	trace, err := m.Trace(10, 4*time.Hour, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	pattern, err := energy.EstimatePattern(VoltageSamples(trace), energy.DefaultEstimatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if pattern.Discharge < 12*time.Minute || pattern.Discharge > 18*time.Minute {
		t.Errorf("Td = %v, want ~15m", pattern.Discharge)
	}
	if pattern.Recharge < 30*time.Minute || pattern.Recharge > 70*time.Minute {
		t.Errorf("Tr = %v, want ~45m", pattern.Recharge)
	}
	if rho := pattern.Rho(); rho < 2 || rho > 4.5 {
		t.Errorf("rho = %v, want ~3", rho)
	}
}

// TestMoteNightDrainsAndStops: overnight the mote drains and then sits
// empty (no harvest), matching the flat night segments of Figure 7.
func TestMoteNightDrainsAndStops(t *testing.T) {
	day := newDay(t, WeatherSunny, 1, 9)
	m, err := NewMote(MoteConfig{}, day)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := m.Trace(22, 6*time.Hour, time.Minute) // 22:00 -> 04:00
	if err != nil {
		t.Fatal(err)
	}
	last := trace[len(trace)-1]
	if last.State != energy.StatePassive {
		t.Errorf("state at 4am = %v, want passive (drained, not charging)", last.State)
	}
	if last.Voltage > 2.2 {
		t.Errorf("voltage at 4am = %v, want near empty", last.Voltage)
	}
	if last.Lux != 0 {
		t.Errorf("lux at 4am = %v", last.Lux)
	}
}

// TestMoteTwoPanelsChargeFaster mirrors the paper's SolarMote variants.
func TestMoteTwoPanelsChargeFaster(t *testing.T) {
	count := func(panels int) int {
		day := newDay(t, WeatherSunny, panels, 10)
		m, err := NewMote(MoteConfig{}, day)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := m.Trace(9, 6*time.Hour, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		// Count full cycles = transitions passive->active.
		cycles := 0
		for i := 1; i < len(trace); i++ {
			if trace[i-1].State == energy.StatePassive && trace[i].State == energy.StateActive {
				cycles++
			}
		}
		return cycles
	}
	if c1, c2 := count(1), count(2); c2 <= c1 {
		t.Errorf("2-panel mote cycled %d times, 1-panel %d — expected faster cycling", c2, c1)
	}
}

func TestHourOfDay(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{5, 5}, {24, 0}, {25.5, 1.5}, {49, 1},
	}
	for _, c := range cases {
		if got := hourOfDay(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("hourOfDay(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
