package bitset

import "testing"

// Kernel benchmarks for the unrolled popcount. Run with
// `go test -bench Kernel -benchmem`: both must report 0 allocs/op, and
// BenchmarkKernelCount vs BenchmarkKernelCountScalar shows the unroll
// win.

func benchSet(b *testing.B, bits int) Bitset {
	b.Helper()
	x := New(bits)
	for v := 0; v < bits; v++ {
		if v%3 == 0 || (v*7)%11 == 0 {
			x.Add(v)
		}
	}
	return x
}

func BenchmarkKernelCount(b *testing.B) {
	s := benchSet(b, 16384)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = s.Count()
	}
}

func BenchmarkKernelCountScalar(b *testing.B) {
	s := benchSet(b, 16384)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = s.CountScalar()
	}
}

// sink defeats dead-code elimination of the benchmarked calls.
var sink int
