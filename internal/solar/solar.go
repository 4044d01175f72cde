// Package solar simulates the energy-harvesting environment of the
// paper's rooftop testbed: sun elevation over the day, irradiance under
// different weather conditions, the light-dependent panel current, and
// the battery charging voltage curve of a TelosB-class mote with one or
// two solar cells.
//
// The paper's Figure 7 measures light strength and charging voltage
// over three July days and observes that (a) light strength varies
// strongly during the day while (b) the charging voltage plateaus as
// soon as harvesting starts, so the per-window charging pattern
// (Tr, Td) is stable. This package reproduces exactly those phenomena
// synthetically, which is the substitution documented in DESIGN.md.
package solar

import (
	"errors"
	"fmt"
	"math"
	"time"

	"cool/internal/stats"
)

// Weather is a day-scale weather class. It selects the irradiance
// envelope and therefore the achievable recharge speed.
type Weather int

const (
	// WeatherSunny is a clear summer day (the paper's ρ = 3 regime).
	WeatherSunny Weather = iota + 1
	// WeatherPartlyCloudy has intermittent cloud shadowing.
	WeatherPartlyCloudy
	// WeatherOvercast is uniformly dim.
	WeatherOvercast
	// WeatherRain is dark with heavy attenuation.
	WeatherRain
)

// String implements fmt.Stringer.
func (w Weather) String() string {
	switch w {
	case WeatherSunny:
		return "sunny"
	case WeatherPartlyCloudy:
		return "partly-cloudy"
	case WeatherOvercast:
		return "overcast"
	case WeatherRain:
		return "rain"
	default:
		return fmt.Sprintf("Weather(%d)", int(w))
	}
}

// attenuation returns the mean irradiance multiplier of the weather
// class and the amplitude of its random fluctuation.
func (w Weather) attenuation() (mean, jitter float64) {
	switch w {
	case WeatherSunny:
		return 1.0, 0.04
	case WeatherPartlyCloudy:
		return 0.65, 0.30
	case WeatherOvercast:
		return 0.30, 0.10
	case WeatherRain:
		return 0.04, 0.03
	default:
		return 0, 0
	}
}

// DayConfig describes one simulated day for one mote.
type DayConfig struct {
	// Weather is the day's weather class.
	Weather Weather
	// Panels is the number of solar cells on the mote (the paper's
	// SolarMote variants carry one or two).
	Panels int
	// SunriseHour and SunsetHour bound the harvesting window in local
	// hours (defaults 5.5 and 19.0, July at the testbed's latitude).
	SunriseHour, SunsetHour float64
	// PeakLux is the clear-sky light strength at solar noon (default
	// 80000 lux).
	PeakLux float64
}

func (c *DayConfig) defaults() error {
	if c.Weather < WeatherSunny || c.Weather > WeatherRain {
		return fmt.Errorf("solar: unknown weather %v", c.Weather)
	}
	if c.Panels == 0 {
		c.Panels = 1
	}
	if c.Panels < 0 || c.Panels > 4 {
		return fmt.Errorf("solar: panel count %d outside [1,4]", c.Panels)
	}
	if c.SunriseHour == 0 && c.SunsetHour == 0 {
		c.SunriseHour, c.SunsetHour = 5.5, 19.0
	}
	if c.SunsetHour <= c.SunriseHour {
		return fmt.Errorf("solar: sunset %v before sunrise %v", c.SunsetHour, c.SunriseHour)
	}
	if c.PeakLux == 0 {
		c.PeakLux = 80000
	}
	if c.PeakLux < 0 {
		return fmt.Errorf("solar: negative peak lux %v", c.PeakLux)
	}
	return nil
}

// Elevation returns the normalized solar elevation factor in [0, 1] at
// the given local hour: 0 outside the daylight window and a smooth
// sine arc between sunrise and sunset.
func Elevation(hour, sunrise, sunset float64) float64 {
	if hour <= sunrise || hour >= sunset {
		return 0
	}
	return math.Sin(math.Pi * (hour - sunrise) / (sunset - sunrise))
}

// Day simulates the light-strength profile of one day. Irradiance
// combines the elevation arc, the weather attenuation, and (for
// partly-cloudy weather) slow cloud-passage oscillations.
type Day struct {
	cfg DayConfig
	rng *stats.RNG
	// cloudPhase randomizes where cloud shadows fall during the day.
	cloudPhase float64
}

// NewDay builds a day simulator. All randomness (cloud positions,
// sensor noise) comes from rng.
func NewDay(cfg DayConfig, rng *stats.RNG) (*Day, error) {
	if rng == nil {
		return nil, errors.New("solar: nil RNG")
	}
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	return &Day{cfg: cfg, rng: rng, cloudPhase: rng.UniformRange(0, 2*math.Pi)}, nil
}

// Config returns the day's effective configuration after defaulting.
func (d *Day) Config() DayConfig { return d.cfg }

// Lux returns the simulated light strength (lux) at the given local
// hour, including sensor noise.
func (d *Day) Lux(hour float64) float64 {
	elev := Elevation(hour, d.cfg.SunriseHour, d.cfg.SunsetHour)
	if elev == 0 {
		return 0
	}
	mean, jitter := d.cfg.Weather.attenuation()
	att := mean
	if d.cfg.Weather == WeatherPartlyCloudy {
		// Slow cloud passages: a few shadowing events per day.
		att = mean * (1 + 0.5*math.Sin(3.1*hour+d.cloudPhase))
		if att > 1 {
			att = 1
		}
	}
	lux := d.cfg.PeakLux * elev * att
	lux *= 1 + d.rng.Normal(0, jitter/3)
	if lux < 0 {
		lux = 0
	}
	return lux
}

// PanelCurrent returns the charging current (mA) produced by the
// mote's panels at the given light strength. The photovoltaic response
// saturates at high lux — the physical reason the paper's charging
// voltage plateaus while light strength still varies.
func (d *Day) PanelCurrent(lux float64) float64 {
	if lux <= 0 {
		return 0
	}
	// A small monocrystalline cell: ~40 mA short-circuit at full sun,
	// logistic knee around 15 klux.
	const iMax, knee = 40.0, 15000.0
	perPanel := iMax * lux / (lux + knee)
	return float64(d.cfg.Panels) * perPanel
}

// SunnyPattern returns the charging pattern the paper measured for its
// motes in sunny weather (Tr = 45 min, Td = 15 min, ρ = 3). Additional
// panels shorten the recharge time proportionally; worse weather
// lengthens it inversely to the attenuation.
func SunnyPattern() (recharge, discharge time.Duration) {
	return 45 * time.Minute, 15 * time.Minute
}

// HarvestScale returns the weather class's mean irradiance multiplier
// relative to a sunny day — the per-slot harvesting scale the lifetime
// planners consume (WeatherRain is a near-zero adversarial streak).
func HarvestScale(w Weather) (float64, error) {
	mean, _ := w.attenuation()
	if mean == 0 {
		return 0, fmt.Errorf("solar: unknown weather %v", w)
	}
	return mean, nil
}

// PatternFor estimates the (Tr, Td) charging pattern for a weather
// class and panel count, anchored on the measured sunny single-panel
// pattern. Discharge time is weather-independent (fixed active-mode
// power draw, per the paper's measurements).
func PatternFor(w Weather, panels int) (recharge, discharge time.Duration, err error) {
	if panels <= 0 {
		return 0, 0, fmt.Errorf("solar: non-positive panel count %d", panels)
	}
	mean, _ := w.attenuation()
	if mean == 0 {
		return 0, 0, fmt.Errorf("solar: unknown weather %v", w)
	}
	baseTr, baseTd := SunnyPattern()
	tr := time.Duration(float64(baseTr) / (mean * float64(panels)))
	return tr, baseTd, nil
}
