// Package controller implements the paper's operational loop as a
// reusable component: each planning window (a day, in the paper), the
// controller measures the charging environment, estimates the (Tr, Td)
// pattern, re-plans the activation schedule for the estimated period,
// and executes it on the slotted simulator — "we can dynamically choose
// μd and μr according to different weather condition" (Section I) made
// concrete.
package controller

import (
	"errors"
	"fmt"
	"time"

	"cool/internal/core"
	"cool/internal/energy"
	"cool/internal/sim"
	"cool/internal/solar"
	"cool/internal/stats"
)

// Config describes a closed-loop run.
type Config struct {
	// NumSensors is the fleet size.
	NumSensors int
	// Factory builds per-slot utility oracles (shared across windows).
	Factory core.OracleFactory
	// Targets normalizes the reported average utility.
	Targets int
	// Weather is the per-window weather sequence to live through; use
	// solar.WeatherModel.Sequence to sample one.
	Weather []solar.Weather
	// SlotsPerWindow is the working slots per planning window (default
	// 48: one 12-hour day of 15-minute slots).
	SlotsPerWindow int
	// Estimate controls whether the controller estimates the pattern
	// from simulated traces (true, the full pipeline) or uses the
	// known per-weather pattern directly (false, an oracle shortcut
	// for experiments).
	Estimate bool
	// Panels gives per-sensor solar panel counts (nil or all-1 = the
	// homogeneous fleet). Any other value switches the loop to the
	// heterogeneous path: each window derives a per-sensor period
	// (more panels recharge proportionally faster), plans offsets with
	// the heterogeneous greedy, and executes under per-sensor charging.
	Panels []int
	// Seed drives all randomness.
	Seed uint64
}

func (c *Config) validate() error {
	if c.NumSensors <= 0 {
		return fmt.Errorf("controller: non-positive fleet size %d", c.NumSensors)
	}
	if c.Factory == nil {
		return errors.New("controller: nil oracle factory")
	}
	if len(c.Weather) == 0 {
		return errors.New("controller: empty weather sequence")
	}
	if c.SlotsPerWindow == 0 {
		c.SlotsPerWindow = 48
	}
	if c.SlotsPerWindow < 0 {
		return fmt.Errorf("controller: negative slots per window")
	}
	if c.Targets <= 0 {
		c.Targets = 1
	}
	if c.Panels != nil {
		if len(c.Panels) != c.NumSensors {
			return fmt.Errorf("controller: %d panel counts for %d sensors", len(c.Panels), c.NumSensors)
		}
		for i, p := range c.Panels {
			if p <= 0 {
				return fmt.Errorf("controller: sensor %d has non-positive panel count %d", i, p)
			}
		}
	}
	return nil
}

// heterogeneous reports whether the fleet mixes panel counts (any
// sensor differing from the first).
func (c *Config) heterogeneous() bool {
	for _, p := range c.Panels {
		if p != c.Panels[0] {
			return true
		}
	}
	return false
}

// WindowReport records one planning window's outcome.
type WindowReport struct {
	// Window is the window index.
	Window int
	// Weather is the window's weather class.
	Weather solar.Weather
	// EstimatedRho is the charging ratio the controller planned for.
	EstimatedRho float64
	// Period is the normalized period used for the window's schedule.
	Period energy.Period
	// AverageUtility is the executed per-slot (per-target) utility.
	AverageUtility float64
	// Denied counts activations the energy state vetoed.
	Denied int
	// Replanned reports whether the schedule changed from the previous
	// window.
	Replanned bool
	// Hyperperiod is the lcm of the per-sensor periods on the
	// heterogeneous path (0 on the homogeneous path).
	Hyperperiod int
}

// Result is the outcome of a closed-loop run.
type Result struct {
	// Windows holds one report per planning window.
	Windows []WindowReport
	// AverageUtility is the run-wide mean of the window averages.
	AverageUtility float64
	// Replans counts schedule changes across the run.
	Replans int
}

// Run executes the closed loop.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.heterogeneous() {
		return runHetero(cfg)
	}
	rng := stats.NewRNG(cfg.Seed)
	res := &Result{}
	var prevPeriod energy.Period
	var sched *core.Schedule

	for w, weather := range cfg.Weather {
		pattern, err := estimateWindow(weather, cfg.panelCount(0), cfg, rng)
		if err != nil {
			return nil, fmt.Errorf("controller: window %d: %w", w, err)
		}
		period, err := pattern.Period()
		if err != nil {
			return nil, fmt.Errorf("controller: window %d: %w", w, err)
		}
		rho := pattern.Rho()
		replanned := sched == nil || period != prevPeriod
		if replanned {
			sched, err = core.Greedy(core.Instance{
				N:       cfg.NumSensors,
				Period:  period,
				Factory: cfg.Factory,
			})
			if err != nil {
				return nil, fmt.Errorf("controller: window %d planning: %w", w, err)
			}
			prevPeriod = period
			res.Replans++
		}
		// Round the window length up to whole periods so the tiling
		// stays feasible.
		slots := cfg.SlotsPerWindow
		if rem := slots % period.Slots(); rem != 0 {
			slots += period.Slots() - rem
		}
		simRes, err := sim.Run(sim.Config{
			NumSensors: cfg.NumSensors,
			Slots:      slots,
			Policy:     sim.SchedulePolicy{Schedule: sched},
			Charging:   sim.DeterministicCharging{Period: period},
			Factory:    cfg.Factory,
			Targets:    cfg.Targets,
			Seed:       cfg.Seed + uint64(w),
		})
		if err != nil {
			return nil, fmt.Errorf("controller: window %d execution: %w", w, err)
		}
		res.Windows = append(res.Windows, WindowReport{
			Window:         w,
			Weather:        weather,
			EstimatedRho:   rho,
			Period:         period,
			AverageUtility: simRes.AverageUtility,
			Denied:         simRes.ActivationsDenied,
			Replanned:      replanned,
		})
		res.AverageUtility += simRes.AverageUtility
	}
	res.AverageUtility /= float64(len(res.Windows))
	return res, nil
}

// heteroMaxHyperperiod caps lcm(T_i) on the heterogeneous path. Mixed
// panel counts under the same weather give periods that share their
// discharge slot, so realistic lcms stay small; the cap only guards
// against pathological mixes.
const heteroMaxHyperperiod = 4096

// runHetero is the closed loop for fleets with mixed panel counts:
// one fleet-wide pattern measurement per window, per-sensor periods
// derived by scaling recharge with panel count, offsets planned with
// the heterogeneous greedy, execution under per-sensor charging.
func runHetero(cfg Config) (*Result, error) {
	rng := stats.NewRNG(cfg.Seed)
	res := &Result{}
	var prevPeriods []energy.Period
	var sched *core.HeteroSchedule

	for w, weather := range cfg.Weather {
		base, err := estimateWindow(weather, 1, cfg, rng)
		if err != nil {
			return nil, fmt.Errorf("controller: window %d: %w", w, err)
		}
		periods, err := heteroPeriods(base, cfg.Panels)
		if err != nil {
			return nil, fmt.Errorf("controller: window %d: %w", w, err)
		}
		replanned := sched == nil || !equalPeriods(periods, prevPeriods)
		if replanned {
			sched, err = core.GreedyHetero(core.HeteroInstance{
				Periods:        periods,
				Factory:        cfg.Factory,
				MaxHyperperiod: heteroMaxHyperperiod,
			})
			if err != nil {
				return nil, fmt.Errorf("controller: window %d planning: %w", w, err)
			}
			prevPeriods = periods
			res.Replans++
		}
		// Round the window length up to whole hyperperiods so the
		// offset tiling stays feasible.
		h := sched.Hyperperiod()
		slots := cfg.SlotsPerWindow
		if rem := slots % h; rem != 0 {
			slots += h - rem
		}
		simRes, err := sim.Run(sim.Config{
			NumSensors: cfg.NumSensors,
			Slots:      slots,
			Policy:     sim.HeteroSchedulePolicy{Schedule: sched},
			Charging:   sim.HeterogeneousCharging{Periods: periods},
			Factory:    cfg.Factory,
			Targets:    cfg.Targets,
			Seed:       cfg.Seed + uint64(w),
		})
		if err != nil {
			return nil, fmt.Errorf("controller: window %d execution: %w", w, err)
		}
		basePeriod, err := base.Period()
		if err != nil {
			return nil, fmt.Errorf("controller: window %d: %w", w, err)
		}
		res.Windows = append(res.Windows, WindowReport{
			Window:         w,
			Weather:        weather,
			EstimatedRho:   base.Rho(),
			Period:         basePeriod,
			AverageUtility: simRes.AverageUtility,
			Denied:         simRes.ActivationsDenied,
			Replanned:      replanned,
			Hyperperiod:    h,
		})
		res.AverageUtility += simRes.AverageUtility
	}
	res.AverageUtility /= float64(len(res.Windows))
	return res, nil
}

// heteroPeriods derives each sensor's normalized period from the
// fleet-wide single-panel pattern: p panels harvest p× the power, so
// the sensor's recharge time is the measured Tr scaled by 1/p. The
// discharge time is panel-independent.
func heteroPeriods(base energy.Pattern, panels []int) ([]energy.Period, error) {
	out := make([]energy.Period, len(panels))
	for i, p := range panels {
		scaled := energy.Pattern{
			Recharge:  time.Duration(float64(base.Recharge) / float64(p)),
			Discharge: base.Discharge,
		}
		period, err := scaled.Period()
		if err != nil {
			return nil, fmt.Errorf("sensor %d (%d panels): %w", i, p, err)
		}
		out[i] = period
	}
	return out, nil
}

func equalPeriods(a, b []energy.Period) bool {
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

// panelCount returns sensor i's panel count (1 when Panels is unset).
func (c *Config) panelCount(i int) int {
	if len(c.Panels) == 0 {
		return 1
	}
	return c.Panels[i]
}

// estimateWindow produces the window's charging pattern for a mote
// with the given panel count: either by simulating a measurement
// trace and estimating the pattern (the full pipeline) or from the
// known per-weather pattern.
func estimateWindow(
	weather solar.Weather, panels int, cfg Config, rng *stats.RNG,
) (energy.Pattern, error) {
	if !cfg.Estimate {
		tr, td, err := solar.PatternFor(weather, panels)
		if err != nil {
			return energy.Pattern{}, err
		}
		return energy.Pattern{Recharge: tr, Discharge: td}, nil
	}
	day, err := solar.NewDay(solar.DayConfig{Weather: weather, Panels: panels}, rng.Split())
	if err != nil {
		return energy.Pattern{}, err
	}
	mote, err := solar.NewMote(solar.MoteConfig{NoiseVolts: 1e-4}, day)
	if err != nil {
		return energy.Pattern{}, err
	}
	// Measure a midday window, the paper's ≈2 h estimation horizon.
	samples, err := mote.Trace(10, 3*time.Hour, time.Minute)
	if err != nil {
		return energy.Pattern{}, err
	}
	pattern, err := energy.EstimatePattern(
		solar.VoltageSamples(samples), energy.DefaultEstimatorConfig())
	if err != nil {
		// No estimable segment (e.g. rain: the mote never recharges).
		// Fall back to the prior for the weather class.
		tr, td, ferr := solar.PatternFor(weather, panels)
		if ferr != nil {
			return energy.Pattern{}, ferr
		}
		pattern = energy.Pattern{Recharge: tr, Discharge: td}
	}
	return pattern, nil
}

// ReportTable renders the windows as an aligned text table.
func (r *Result) ReportTable() string {
	out := fmt.Sprintf("%6s %-14s %6s %6s %12s %7s %9s\n",
		"window", "weather", "rho", "T", "avg-utility", "denied", "replanned")
	for _, w := range r.Windows {
		out += fmt.Sprintf("%6d %-14v %6.2f %6d %12.4f %7d %9v\n",
			w.Window, w.Weather, w.EstimatedRho, w.Period.Slots(),
			w.AverageUtility, w.Denied, w.Replanned)
	}
	out += fmt.Sprintf("run average: %.4f over %d windows, %d replans\n",
		r.AverageUtility, len(r.Windows), r.Replans)
	return out
}
