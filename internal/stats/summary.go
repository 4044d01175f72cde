package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by summary constructors that receive no samples.
var ErrEmpty = errors.New("stats: empty sample set")

// Summary holds the usual descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary over xs. It returns ErrEmpty when xs is
// empty.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Mean += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean /= float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s, nil
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 when fewer than
// two samples are supplied).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// ConfidenceInterval95 returns the half-width of a normal-approximation
// 95% confidence interval for the mean of xs. It returns 0 when fewer
// than two samples are supplied.
func ConfidenceInterval95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	const z95 = 1.959963984540054
	return z95 * StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns ErrEmpty when xs is
// empty and an error when q is outside [0, 1].
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// LinearFit fits y = a + b*x by least squares and returns the intercept
// a and slope b. It returns an error when fewer than two points are
// supplied or when the xs are all identical.
func LinearFit(xs, ys []float64) (a, b float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, errors.New("stats: mismatched sample lengths")
	}
	if len(xs) < 2 {
		return 0, 0, errors.New("stats: need at least two points to fit")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return 0, 0, errors.New("stats: degenerate fit (constant x)")
	}
	b = sxy / sxx
	a = my - b*mx
	return a, b, nil
}
