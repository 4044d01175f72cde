package submodular

import (
	"math/rand"
	"testing"
)

// Kernel benchmarks for the detection model's unrolled Eval path and
// the column-sparse dirty refresh; run them with
// `go test -bench Kernel -benchmem`. Eval vs EvalScalar shows the
// scatter/reduction unroll; SparseRefresh vs BulkGain shows the
// column-sparse win at the single-mutation granularity the engines
// actually use. The refresh benchmarks must report 0 allocs/op.

func kernelBenchUtility(b *testing.B) *DetectionUtility {
	b.Helper()
	rng := rand.New(rand.NewSource(17))
	const n, m = 1000, 200
	targets := make([]DetectionTarget, m)
	for i := range targets {
		probs := make(map[int]float64)
		deg := 20 + rng.Intn(40)
		for k := 0; k < deg; k++ {
			probs[rng.Intn(n)] = 0.1 + 0.8*rng.Float64()
		}
		targets[i] = DetectionTarget{Weight: 1 + rng.Float64(), Probs: probs}
	}
	u, err := NewDetectionUtility(n, targets)
	if err != nil {
		b.Fatal(err)
	}
	return u
}

func kernelBenchSet(u *DetectionUtility) []int {
	set := make([]int, 0, u.GroundSize()/2)
	for v := 0; v < u.GroundSize(); v += 2 {
		set = append(set, v)
	}
	return set
}

func BenchmarkKernelEval(b *testing.B) {
	u := kernelBenchUtility(b)
	set := kernelBenchSet(u)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF = u.Eval(set)
	}
}

func BenchmarkKernelEvalScalar(b *testing.B) {
	u := kernelBenchUtility(b)
	set := kernelBenchSet(u)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF = u.EvalScalar(set)
	}
}

// BenchmarkKernelSparseGainRefresh times the batch sparse refresh with a
// one-element changed list (k = 1), the form the greedy climb runs after
// every step.
func BenchmarkKernelSparseGainRefresh(b *testing.B) {
	u := kernelBenchUtility(b)
	o := u.Oracle()
	for v := 0; v < u.GroundSize(); v += 3 {
		o.Add(v)
	}
	out := make([]float64, u.GroundSize())
	o.BulkGain(out)
	one := make([]int, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one[0] = i % u.GroundSize()
		o.SparseGainRefreshAll(one, out)
	}
}

func BenchmarkKernelBulkGain(b *testing.B) {
	u := kernelBenchUtility(b)
	o := u.Oracle()
	for v := 0; v < u.GroundSize(); v += 3 {
		o.Add(v)
	}
	out := make([]float64, u.GroundSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.BulkGain(out)
	}
}

// sinkF defeats dead-code elimination of the benchmarked calls.
var sinkF float64
