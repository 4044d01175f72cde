package submodular

import (
	"math/rand"
	"testing"
)

// Microbenchmarks for the oracle hot path; run them with -benchmem for
// the allocation picture (the AllocsPerRun tests in alloc_test.go are
// the enforced limits). The MapOracle benchmarks keep the retired map
// layout measurable so regressions of the flat layout are visible as a
// shrunk gap rather than an absolute mystery.

const benchN = 1024

func benchDetection(b *testing.B) *DetectionUtility {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	u := randomDetection(rng, benchN, benchN/2)
	return u
}

func seedOracle(o RemovalOracle, n int) {
	for v := 0; v < n; v += 3 {
		o.Add(v)
	}
}

func BenchmarkDetectionOracleGain(b *testing.B) {
	o := benchDetection(b).Oracle()
	seedOracle(o, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.Gain(i % benchN)
	}
}

func BenchmarkDetectionOracleLoss(b *testing.B) {
	o := benchDetection(b).Oracle()
	seedOracle(o, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.Loss(i % benchN)
	}
}

func BenchmarkDetectionOracleBulkGain(b *testing.B) {
	o := benchDetection(b).Oracle()
	seedOracle(o, benchN)
	out := make([]float64, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.BulkGain(out)
	}
}

func BenchmarkDetectionOracleAddRemove(b *testing.B) {
	o := benchDetection(b).Oracle()
	seedOracle(o, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := i % benchN
		o.Add(v)
		o.Remove(v)
	}
}

func BenchmarkCoverageOracleGain(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	o := randomCoverage(rng, benchN, benchN/2).Oracle()
	seedOracle(o, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.Gain(i % benchN)
	}
}

func BenchmarkCoverageOracleBulkGain(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	o := randomCoverage(rng, benchN, benchN/2).Oracle()
	seedOracle(o, benchN)
	out := make([]float64, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.BulkGain(out)
	}
}

// BenchmarkEvalOracleGain measures the generic bitset-backed fallback
// oracle; its cost is dominated by the wrapped Eval.
func BenchmarkEvalOracleGain(b *testing.B) {
	o := NewEvalOracle(benchDetection(b))
	seedOracle(o, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.Gain(i % benchN)
	}
}

// BenchmarkMapOracleGain is the pre-rewrite map-based reference under
// the same load — the yardstick for the flat layout's win.
func BenchmarkMapOracleGain(b *testing.B) {
	o := NewMapOracle(benchDetection(b))
	seedOracle(o, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.Gain(i % benchN)
	}
}
