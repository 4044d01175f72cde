package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Summarize(nil) error = %v, want ErrEmpty", err)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 1 || s.Mean != 7 || s.Std != 0 || s.Min != 7 || s.Max != 7 || s.Median != 7 {
		t.Errorf("unexpected summary: %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 5 {
		t.Errorf("mean = %v, want 5", s.Mean)
	}
	if !almostEqual(s.Std, 2.138, 0.001) {
		t.Errorf("std = %v, want ~2.138", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.Median != 4.5 {
		t.Errorf("median = %v, want 4.5", s.Median)
	}
}

func TestMeanAndVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if m := Mean(xs); m != 3 {
		t.Errorf("Mean = %v", m)
	}
	if v := Variance(xs); v != 2.5 {
		t.Errorf("Variance = %v, want 2.5", v)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate inputs should return 0")
	}
}

func TestConfidenceInterval95(t *testing.T) {
	if ci := ConfidenceInterval95([]float64{5}); ci != 0 {
		t.Errorf("single-sample CI = %v, want 0", ci)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i % 2) // std = ~0.5025
	}
	ci := ConfidenceInterval95(xs)
	want := 1.959963984540054 * StdDev(xs) / 10
	if !almostEqual(ci, want, 1e-12) {
		t.Errorf("CI = %v, want %v", ci, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", c.q, err)
		}
		if got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("Quantile of empty slice should error")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("Quantile(1.5) should error")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	got, err := Quantile([]float64{0, 10}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 3, 1e-12) {
		t.Errorf("Quantile = %v, want 3", got)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	a, b, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(a, 1, 1e-12) || !almostEqual(b, 2, 1e-12) {
		t.Errorf("fit = (%v, %v), want (1, 2)", a, b)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("fit with one point should error")
	}
	if _, _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, _, err := LinearFit([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("constant x should error")
	}
}

func TestSummarizePropertyBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			// Exclude magnitudes whose sum of squares overflows float64;
			// overflow, not the summary logic, is what breaks the bounds.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e150 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s, err := Summarize(xs)
		if err != nil {
			return false
		}
		return s.Min <= s.Mean && s.Mean <= s.Max &&
			s.Min <= s.Median && s.Median <= s.Max && s.Std >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuantilePropertyMonotone(t *testing.T) {
	r := NewRNG(99)
	for trial := 0; trial < 50; trial++ {
		xs := make([]float64, 1+r.Intn(40))
		for i := range xs {
			xs[i] = r.UniformRange(-100, 100)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v, err := Quantile(xs, q)
			if err != nil {
				t.Fatal(err)
			}
			if v < prev-1e-9 {
				t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
			}
			prev = v
		}
	}
}
