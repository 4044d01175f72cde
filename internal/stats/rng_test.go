package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("step %d: streams diverged: %d != %d", i, got, want)
		}
	}
}

func TestNewRNGSeedSensitivity(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("adjacent seeds produced %d identical outputs out of 64", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	child := r.Split()
	// The child stream must not simply mirror the parent.
	equal := 0
	for i := 0; i < 64; i++ {
		if r.Uint64() == child.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Errorf("split stream mirrors parent (%d/64 equal)", equal)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v, want [0,1)", f)
		}
	}
}

func TestFloat64MeanNearHalf(t *testing.T) {
	r := NewRNG(4)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(6)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.1*want {
			t.Errorf("bucket %d count %d deviates >10%% from %v", i, c, want)
		}
	}
}

func TestShufflePermutes(t *testing.T) {
	r := NewRNG(8)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Shuffle(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(9)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Normal(10, 3)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Errorf("normal std = %v, want ~3", math.Sqrt(variance))
	}
}

func TestNormalPanicsOnNegativeSigma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Normal with negative sigma did not panic")
		}
	}()
	NewRNG(1).Normal(0, -1)
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(10)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		x := r.Exponential(4)
		if x < 0 {
			t.Fatalf("negative exponential variate %v", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-4) > 0.05 {
		t.Errorf("exponential mean = %v, want ~4", mean)
	}
}

func TestExponentialPanicsOnNonPositiveMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exponential(0) did not panic")
		}
	}()
	NewRNG(1).Exponential(0)
}

func TestPoissonMoments(t *testing.T) {
	r := NewRNG(11)
	for _, lambda := range []float64{0.5, 3, 12, 50, 200} {
		const n = 50000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			k := float64(r.Poisson(lambda))
			sum += k
			sumSq += k * k
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Errorf("lambda=%v: mean = %v", lambda, mean)
		}
		// Poisson variance equals lambda.
		if math.Abs(variance-lambda) > 0.1*lambda+0.1 {
			t.Errorf("lambda=%v: variance = %v", lambda, variance)
		}
	}
}

func TestPoissonZeroLambda(t *testing.T) {
	r := NewRNG(12)
	for i := 0; i < 100; i++ {
		if k := r.Poisson(0); k != 0 {
			t.Fatalf("Poisson(0) = %d, want 0", k)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := NewRNG(13)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewRNG(14)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if rate := float64(hits) / n; math.Abs(rate-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(15)
	for i := 0; i < 10000; i++ {
		v := r.UniformRange(-5, 12)
		if v < -5 || v >= 12 {
			t.Fatalf("UniformRange(-5,12) = %v out of range", v)
		}
	}
}

func TestUniformRangePanicsWhenInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("UniformRange(1,0) did not panic")
		}
	}()
	NewRNG(1).UniformRange(1, 0)
}

func TestIntnPropertyInRange(t *testing.T) {
	r := NewRNG(16)
	f := func(n uint16) bool {
		bound := int(n%1000) + 1
		v := r.Intn(bound)
		return v >= 0 && v < bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogFactorialMatchesDirect(t *testing.T) {
	f := 1.0
	for k := 1; k <= 20; k++ {
		f *= float64(k)
		got := logFactorial(float64(k))
		want := math.Log(f)
		if math.Abs(got-want) > 1e-6*math.Abs(want)+1e-9 {
			t.Errorf("logFactorial(%d) = %v, want %v", k, got, want)
		}
	}
}
