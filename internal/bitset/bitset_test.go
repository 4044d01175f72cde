package bitset

import (
	"math/rand"
	"testing"
)

func TestBasicOps(t *testing.T) {
	s := New(130) // crosses two word boundaries
	if s.Len() != 130 || count(s) != 0 {
		t.Fatalf("fresh set: Len=%d members=%d", s.Len(), count(s))
	}
	for _, v := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Contains(v) {
			t.Fatalf("empty set contains %d", v)
		}
		s.Add(v)
		if !s.Contains(v) {
			t.Fatalf("added %d but Contains is false", v)
		}
		s.Add(v) // idempotent
	}
	if got := count(s); got != 8 {
		t.Fatalf("members = %d, want 8", got)
	}
	s.Remove(64)
	s.Remove(64) // idempotent
	if s.Contains(64) || count(s) != 7 {
		t.Fatalf("after Remove(64): Contains=%v members=%d", s.Contains(64), count(s))
	}
}

// count returns the number of members of s.
func count(s Bitset) int { return len(s.AppendMembers(nil)) }

// fill adds every element of s's universe.
func fill(s Bitset) {
	for v := 0; v < s.Len(); v++ {
		s.Add(v)
	}
}

func TestFillClearMembers(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		s := New(n)
		fill(s)
		if count(s) != n {
			t.Fatalf("n=%d: fill then members = %d", n, count(s))
		}
		members := s.AppendMembers(nil)
		if len(members) != n {
			t.Fatalf("n=%d: %d members after fill", n, len(members))
		}
		for i, v := range members {
			if v != i {
				t.Fatalf("n=%d: member[%d] = %d", n, i, v)
			}
		}
		s.Clear()
		if count(s) != 0 {
			t.Fatalf("n=%d: Clear left %d members", n, count(s))
		}
	}
}

func TestForEachOrder(t *testing.T) {
	s := New(300)
	want := []int{2, 64, 65, 190, 299}
	for _, v := range want {
		s.Add(v)
	}
	var got []int
	s.ForEach(func(v int) { got = append(got, v) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d members, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order: got %v want %v", got, want)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, v := range []int{-1, 10, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for element %d", v)
				}
			}()
			s.Contains(v)
		}()
	}
}

// TestAgainstMap cross-checks a random operation sequence against a
// map[int]bool reference.
func TestAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 257
	s := New(n)
	ref := make(map[int]bool)
	for i := 0; i < 5000; i++ {
		v := rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			s.Add(v)
			ref[v] = true
		case 1:
			s.Remove(v)
			delete(ref, v)
		default:
			if s.Contains(v) != ref[v] {
				t.Fatalf("step %d: Contains(%d) = %v, ref %v", i, v, s.Contains(v), ref[v])
			}
		}
		if count(s) != len(ref) {
			t.Fatalf("step %d: members = %d, ref %d", i, count(s), len(ref))
		}
	}
}

func TestZeroAllocHotOps(t *testing.T) {
	s := New(1024)
	scratch := make([]int, 0, 1024)
	if a := testing.AllocsPerRun(100, func() {
		s.Add(513)
		_ = s.Contains(513)
		s.Remove(513)
		scratch = s.AppendMembers(scratch[:0])
	}); a != 0 {
		t.Fatalf("hot operations allocated %v times per run", a)
	}
}

// boundarySizes are the tail-word corners of the 64-bit layout: the
// empty universe, a single bit, one-below/at/one-above the word
// boundary, and a two-word universe ending exactly on a boundary minus
// one.
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
		if got, want := count(s), 0; got != want {
			t.Errorf("size %d: empty members = %d", size, got)
		}
		fillPattern(s, 0)
		want := 0
		for v := 0; v < size; v++ {
			if s.Contains(v) {
				want++
			}
		}
		if got := count(s); got != want {
			t.Errorf("size %d: members = %d, membership says %d", size, got, want)
		}
		// A full universe must count to exactly size: the tail word
		// holds only the bits below size.
		fill(s)
		if got := count(s); got != size {
			t.Errorf("size %d: full members = %d", size, got)
		}
	}
}

func TestAddRemoveBoundaryBits(t *testing.T) {
	s := New(128)
	for _, v := range []int{0, 1, 63, 64, 65, 127} {
		s.Add(v)
		if !s.Contains(v) || count(s) != 1 {
			t.Errorf("Add(%d): Contains=%v members=%d", v, s.Contains(v), count(s))
		}
		s.Remove(v)
		if s.Contains(v) || count(s) != 0 {
			t.Errorf("Remove(%d): Contains=%v members=%d", v, s.Contains(v), count(s))
		}
	}
}

// TestWholeSetOpsZeroAlloc extends the hot-op allocation gate to the
// whole-set sweeps.
func TestWholeSetOpsZeroAlloc(t *testing.T) {
	a := New(1024)
	members := 0
	if allocs := testing.AllocsPerRun(100, func() {
		fillPattern(a, 0)
		a.ForEach(func(int) { members++ })
		a.Clear()
	}); allocs != 0 {
		t.Fatalf("whole-set operations allocated %v times per run", allocs)
	}
	if members == 0 {
		t.Fatal("ForEach visited no members")
	}
}
