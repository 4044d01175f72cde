package bitset

import "testing"

// Kernel benchmarks for the unrolled whole-set sweeps. Run with
// `go test -bench Kernel -benchmem`: all three must report 0
// allocs/op, and BenchmarkKernelCount vs BenchmarkKernelCountScalar
// shows the unroll win.

func benchSets(b *testing.B, bits int) (Bitset, Bitset) {
	b.Helper()
	x, y := New(bits), New(bits)
	for v := 0; v < bits; v++ {
		if v%3 == 0 || (v*7)%11 == 0 {
			x.Add(v)
		}
		if v%2 == 0 {
			y.Add(v)
		}
	}
	return x, y
}

func BenchmarkKernelCount(b *testing.B) {
	s, _ := benchSets(b, 16384)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = s.Count()
	}
}

func BenchmarkKernelCountScalar(b *testing.B) {
	s, _ := benchSets(b, 16384)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = s.CountScalar()
	}
}

func BenchmarkKernelAndCount(b *testing.B) {
	x, y := benchSets(b, 16384)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = x.AndCount(y)
	}
}

// sink defeats dead-code elimination of the benchmarked calls.
var sink int
