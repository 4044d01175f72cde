package bitset

import (
	"math/bits"
	"math/rand"
	"testing"
)

// CountScalar is the pre-kernel scalar popcount loop, kept as the
// differential reference for Count: the kernel tests require
// Count() == CountScalar() on every input.
func (s Bitset) CountScalar() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// boundarySizes are the tail-word corners of the 64-bit layout: the
// empty universe, a single bit, one-below/at/one-above the word
// boundary, and a two-word universe ending exactly on a boundary minus
// one. The unrolled kernels split every sweep into 4-word blocks plus
// a tail, so these sizes pin each split point: 0 and 1 words are all
// tail, 2 words straddle nothing, and the randomized sizes in
// TestKernelsMatchScalarRandom cover ≥4-word blocks.
var boundarySizes = []int{0, 1, 63, 64, 65, 127}

// fillPattern populates s with a deterministic pattern parameterized by
// phase so different sets disagree.
func fillPattern(s Bitset, phase int) {
	for v := 0; v < s.Len(); v++ {
		if (v+phase)%3 == 0 || (v*7+phase)%11 == 0 {
			s.Add(v)
		}
	}
}

func TestCountBoundarySizes(t *testing.T) {
	for _, size := range boundarySizes {
		s := New(size)
		if got, want := s.Count(), 0; got != want {
			t.Errorf("size %d: empty Count = %d", size, got)
		}
		fillPattern(s, 0)
		want := 0
		for v := 0; v < size; v++ {
			if s.Contains(v) {
				want++
			}
		}
		if got := s.Count(); got != want {
			t.Errorf("size %d: Count = %d, membership says %d", size, got, want)
		}
		if got := s.CountScalar(); got != want {
			t.Errorf("size %d: CountScalar = %d, membership says %d", size, got, want)
		}
		// Fill exercises the tail mask; a full universe must count to
		// exactly size — one stray tail bit would break this.
		s.Fill()
		if got := s.Count(); got != size {
			t.Errorf("size %d: full Count = %d", size, got)
		}
		if got := s.CountScalar(); got != size {
			t.Errorf("size %d: full CountScalar = %d", size, got)
		}
	}
}

func TestAndBoundarySizes(t *testing.T) {
	for _, size := range boundarySizes {
		a, b := New(size), New(size)
		fillPattern(a, 0)
		fillPattern(b, 5)
		// Reference intersection via membership.
		want := make([]bool, size)
		wantCount := 0
		for v := 0; v < size; v++ {
			if a.Contains(v) && b.Contains(v) {
				want[v] = true
				wantCount++
			}
		}
		if got := a.AndCount(b); got != wantCount {
			t.Errorf("size %d: AndCount = %d, want %d", size, got, wantCount)
		}
		// AndCount must not have modified its operands.
		fresh := New(size)
		fillPattern(fresh, 0)
		if !a.Equal(fresh) {
			t.Errorf("size %d: AndCount modified the receiver", size)
		}
		a.And(b)
		for v := 0; v < size; v++ {
			if a.Contains(v) != want[v] {
				t.Errorf("size %d: And membership of %d = %v, want %v", size, v, a.Contains(v), want[v])
			}
		}
		if got := a.Count(); got != wantCount {
			t.Errorf("size %d: post-And Count = %d, want %d", size, got, wantCount)
		}
	}
}

func TestAddRemoveBoundaryBits(t *testing.T) {
	s := New(128)
	for _, v := range []int{0, 1, 63, 64, 65, 127} {
		s.Add(v)
		if !s.Contains(v) || s.Count() != 1 {
			t.Errorf("Add(%d): Contains=%v Count=%d", v, s.Contains(v), s.Count())
		}
		s.Remove(v)
		if s.Contains(v) || s.Count() != 0 {
			t.Errorf("Remove(%d): Contains=%v Count=%d", v, s.Contains(v), s.Count())
		}
	}
}

func TestAndUniverseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And across universes did not panic")
		}
	}()
	New(64).And(New(65))
}

// TestKernelsMatchScalarRandom differentially tests the unrolled
// kernels against per-word scalar loops on random universes spanning
// every unroll remainder (len(words) mod 4 ∈ {0,1,2,3}).
func TestKernelsMatchScalarRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		size := rng.Intn(700)
		a, b := New(size), New(size)
		for v := 0; v < size; v++ {
			if rng.Intn(2) == 0 {
				a.Add(v)
			}
			if rng.Intn(2) == 0 {
				b.Add(v)
			}
		}
		if got, want := a.Count(), a.CountScalar(); got != want {
			t.Fatalf("trial %d size %d: Count %d != CountScalar %d", trial, size, got, want)
		}
		// Scalar AndCount reference.
		want := 0
		for v := 0; v < size; v++ {
			if a.Contains(v) && b.Contains(v) {
				want++
			}
		}
		if got := a.AndCount(b); got != want {
			t.Fatalf("trial %d size %d: AndCount %d != scalar %d", trial, size, got, want)
		}
		a.And(b)
		if got := a.Count(); got != want {
			t.Fatalf("trial %d size %d: post-And Count %d != %d", trial, size, got, want)
		}
	}
}

// TestWholeSetOpsZeroAlloc extends the hot-op allocation gate to the
// new whole-set kernels.
func TestWholeSetOpsZeroAlloc(t *testing.T) {
	a, b := New(1024), New(1024)
	fillPattern(a, 0)
	fillPattern(b, 3)
	if allocs := testing.AllocsPerRun(100, func() {
		_ = a.Count()
		_ = a.CountScalar()
		_ = a.AndCount(b)
		a.And(b)
	}); allocs != 0 {
		t.Fatalf("whole-set operations allocated %v times per run", allocs)
	}
}
