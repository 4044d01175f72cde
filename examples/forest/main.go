// Forest monitoring: the paper's motivating application. Sensors are
// scattered over a forest region Ω; the utility is the weighted area
// covered per slot (Equation 2), with a riparian strip weighted three
// times higher than the rest of the forest. The example replans the
// schedule each day as the weather (and hence the charging ratio ρ)
// changes, switching between the placement (ρ > 1) and removal (ρ ≤ 1)
// forms of the greedy scheme.
package main

import (
	"fmt"
	"log"

	"cool"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// weatherRho maps each day's weather to a normalized charging ratio.
// Sunny days recharge three times faster than nodes drain relative to
// the slot length chosen per weather; a hypothetical "super capacitor"
// deployment even reaches ρ = 1/2 when panels outpace the load.
var week = []struct {
	day     string
	weather cool.Weather
	rho     float64
}{
	{"monday", cool.WeatherSunny, 3},
	{"tuesday", cool.WeatherSunny, 3},
	{"wednesday", cool.WeatherPartlyCloudy, 5},
	{"thursday", cool.WeatherOvercast, 9},
	{"friday", cool.WeatherPartlyCloudy, 5},
	{"saturday", cool.WeatherSunny, 3},
	{"sunday", cool.WeatherSunny, 1},
}

func run() error {
	const fieldSide = 400
	network, err := cool.Deploy(cool.DeployConfig{
		Field:   cool.NewField(fieldSide),
		Sensors: 80,
		Targets: 0, // region coverage, no point targets
		Range:   55,
		Layout:  cool.LayoutClustered,
	}, 11)
	if err != nil {
		return err
	}

	// Weighted preference over Ω: the riparian strip along the river
	// (y in [150, 250]) matters three times as much.
	riparian := func(p cool.Point) float64 {
		if p.Y >= 150 && p.Y <= 250 {
			return 3
		}
		return 1
	}
	utility, err := cool.NewAreaUtility(network, cool.NewField(fieldSide), 250, riparian)
	if err != nil {
		return err
	}

	fmt.Println("day        weather         rho  mode       avg-weighted-area")
	var weekTotal float64
	for _, d := range week {
		period, err := cool.PeriodFromRho(d.rho)
		if err != nil {
			return err
		}
		planner, err := cool.NewPlanner(utility, period)
		if err != nil {
			return err
		}
		plan, err := planner.Plan(cool.PlanRequest{Algorithm: cool.AlgorithmGreedy})
		if err != nil {
			return err
		}
		schedule := plan.Schedule
		// 12-hour day; slot length varies with the weather's pattern but
		// the slot count per day stays a multiple of the period.
		slots := 12 * period.Slots()
		result, err := cool.Simulate(planner, schedule, slots, 1, 3)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %-15v %4.2f  %-9v  %14.1f\n",
			d.day, d.weather, d.rho, schedule.Mode(), result.AverageUtility)
		weekTotal += result.TotalUtility
	}
	fmt.Printf("week total weighted-area-slots: %.1f\n", weekTotal)

	// How much of the forest can the full fleet see at once?
	sub, err := cool.Subregions(network, cool.NewField(fieldSide), 250)
	if err != nil {
		return err
	}
	fmt.Printf("subregions: %d, covered area with all sensors on: %.1f of %.1f\n",
		len(sub.Cells), sub.CoveredArea(), float64(fieldSide*fieldSide))
	return nil
}
