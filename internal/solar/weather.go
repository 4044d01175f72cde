package solar

import (
	"errors"
	"fmt"

	"cool/internal/stats"
)

// WeatherModel is a first-order Markov chain over day-scale weather —
// the multi-day pattern variability the paper handles by re-choosing
// the charging pattern each day (Section II-B).
type WeatherModel struct {
	// transitions[w] holds the next-day distribution for weather w.
	transitions map[Weather][]weatherProb
}

type weatherProb struct {
	w Weather
	p float64
}

// DefaultWeatherModel returns a summer-continental chain: sunny days
// persist, rain is rare and short-lived.
func DefaultWeatherModel() *WeatherModel {
	m := &WeatherModel{transitions: map[Weather][]weatherProb{
		WeatherSunny: {
			{WeatherSunny, 0.70}, {WeatherPartlyCloudy, 0.22},
			{WeatherOvercast, 0.06}, {WeatherRain, 0.02},
		},
		WeatherPartlyCloudy: {
			{WeatherSunny, 0.40}, {WeatherPartlyCloudy, 0.35},
			{WeatherOvercast, 0.18}, {WeatherRain, 0.07},
		},
		WeatherOvercast: {
			{WeatherSunny, 0.20}, {WeatherPartlyCloudy, 0.35},
			{WeatherOvercast, 0.30}, {WeatherRain, 0.15},
		},
		WeatherRain: {
			{WeatherSunny, 0.15}, {WeatherPartlyCloudy, 0.30},
			{WeatherOvercast, 0.35}, {WeatherRain, 0.20},
		},
	}}
	return m
}

// Next samples the following day's weather.
func (m *WeatherModel) Next(cur Weather, rng *stats.RNG) (Weather, error) {
	row, ok := m.transitions[cur]
	if !ok {
		return 0, fmt.Errorf("solar: weather %v has no transition row", cur)
	}
	r := rng.Float64()
	acc := 0.0
	for _, wp := range row {
		acc += wp.p
		if r < acc {
			return wp.w, nil
		}
	}
	return row[len(row)-1].w, nil
}

// Sequence samples a days-long weather sequence starting from start.
func (m *WeatherModel) Sequence(start Weather, days int, rng *stats.RNG) ([]Weather, error) {
	if days <= 0 {
		return nil, fmt.Errorf("solar: non-positive day count %d", days)
	}
	if rng == nil {
		return nil, errors.New("solar: nil RNG")
	}
	out := make([]Weather, days)
	cur := start
	for d := 0; d < days; d++ {
		out[d] = cur
		next, err := m.Next(cur, rng)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return out, nil
}
