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
// one. The unrolled kernel splits its sweep into 4-word blocks plus a
// tail, so these sizes pin each split point: 0 and 1 words are all
// tail, 2 words straddle nothing, and the randomized sizes in
// TestKernelsMatchScalarRandom cover ≥4-word blocks.
var boundarySizes = []int{0, 1, 63, 64, 65, 127}

// fillPattern populates s with a deterministic pattern parameterized by
// phase.
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
		// A full universe must count to exactly size: the tail word
		// holds only the bits below size.
		fill(s)
		if got := s.Count(); got != size {
			t.Errorf("size %d: full Count = %d", size, got)
		}
		if got := s.CountScalar(); got != size {
			t.Errorf("size %d: full CountScalar = %d", size, got)
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

// TestKernelsMatchScalarRandom differentially tests the unrolled
// popcount kernel against the per-word scalar loop on random universes
// spanning every unroll remainder (len(words) mod 4 ∈ {0,1,2,3}).
func TestKernelsMatchScalarRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		size := rng.Intn(700)
		a := New(size)
		for v := 0; v < size; v++ {
			if rng.Intn(2) == 0 {
				a.Add(v)
			}
		}
		if got, want := a.Count(), a.CountScalar(); got != want {
			t.Fatalf("trial %d size %d: Count %d != CountScalar %d", trial, size, got, want)
		}
	}
}

// TestWholeSetOpsZeroAlloc extends the hot-op allocation gate to the
// whole-set popcount.
func TestWholeSetOpsZeroAlloc(t *testing.T) {
	a := New(1024)
	fillPattern(a, 0)
	if allocs := testing.AllocsPerRun(100, func() {
		_ = a.Count()
		_ = a.CountScalar()
	}); allocs != 0 {
		t.Fatalf("whole-set operations allocated %v times per run", allocs)
	}
}
