package solar

import (
	"testing"

	"cool/internal/stats"
)

func TestDefaultWeatherModelRowsSum(t *testing.T) {
	m := DefaultWeatherModel()
	for from, row := range m.transitions {
		var sum float64
		for _, wp := range row {
			if wp.p <= 0 {
				t.Errorf("%v -> %v has non-positive probability", from, wp.w)
			}
			sum += wp.p
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("row %v sums to %v", from, sum)
		}
	}
}

func TestWeatherSequenceValidation(t *testing.T) {
	m := DefaultWeatherModel()
	if _, err := m.Sequence(WeatherSunny, 0, stats.NewRNG(1)); err == nil {
		t.Error("zero days accepted")
	}
	if _, err := m.Sequence(WeatherSunny, 3, nil); err == nil {
		t.Error("nil RNG accepted")
	}
	// A partial model errors when it walks into a missing row.
	partial := &WeatherModel{transitions: map[Weather][]weatherProb{
		WeatherSunny: {{WeatherRain, 1}},
	}}
	if _, err := partial.Sequence(WeatherSunny, 5, stats.NewRNG(1)); err == nil {
		t.Error("missing transition row accepted")
	}
}

func TestWeatherSequenceStatistics(t *testing.T) {
	m := DefaultWeatherModel()
	seq, err := m.Sequence(WeatherSunny, 5000, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if seq[0] != WeatherSunny {
		t.Error("sequence does not start at the given state")
	}
	counts := map[Weather]int{}
	for _, w := range seq {
		counts[w]++
	}
	// Sunny dominates the stationary distribution of the default chain.
	if counts[WeatherSunny] < counts[WeatherPartlyCloudy] ||
		counts[WeatherPartlyCloudy] < counts[WeatherRain] {
		t.Errorf("implausible stationary counts: %v", counts)
	}
	for w := WeatherSunny; w <= WeatherRain; w++ {
		if counts[w] == 0 {
			t.Errorf("weather %v never sampled in 5000 days", w)
		}
	}
}

func TestWeatherSequenceDeterministic(t *testing.T) {
	m := DefaultWeatherModel()
	a, err := m.Sequence(WeatherOvercast, 50, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Sequence(WeatherOvercast, 50, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sequence not deterministic per seed")
		}
	}
}
