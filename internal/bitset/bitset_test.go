package bitset

import (
	"math/rand"
	"testing"
)

func TestBasicOps(t *testing.T) {
	s := New(130) // crosses two word boundaries
	if s.Len() != 130 || s.Count() != 0 {
		t.Fatalf("fresh set: Len=%d Count=%d", s.Len(), s.Count())
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
	if got := s.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	s.Remove(64)
	s.Remove(64) // idempotent
	if s.Contains(64) || s.Count() != 7 {
		t.Fatalf("after Remove(64): Contains=%v Count=%d", s.Contains(64), s.Count())
	}
}

func TestFillClearMembers(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		s := New(n)
		s.Fill()
		if s.Count() != n {
			t.Fatalf("n=%d: Fill then Count = %d", n, s.Count())
		}
		members := s.AppendMembers(nil)
		if len(members) != n {
			t.Fatalf("n=%d: %d members after Fill", n, len(members))
		}
		for i, v := range members {
			if v != i {
				t.Fatalf("n=%d: member[%d] = %d", n, i, v)
			}
		}
		s.Clear()
		if s.Count() != 0 {
			t.Fatalf("n=%d: Clear left %d members", n, s.Count())
		}
	}
}

func TestEqual(t *testing.T) {
	s, c := New(100), New(100)
	for _, v := range []int{3, 77} {
		s.Add(v)
		c.Add(v)
	}
	if !c.Equal(s) {
		t.Fatal("sets with the same members not equal")
	}
	c.Add(50)
	if c.Equal(s) {
		t.Fatal("sets with different members equal")
	}
	e := New(101)
	if s.Equal(e) {
		t.Fatal("Equal across different universes")
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
		if s.Count() != len(ref) {
			t.Fatalf("step %d: Count = %d, ref %d", i, s.Count(), len(ref))
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
		_ = s.Count()
		scratch = s.AppendMembers(scratch[:0])
	}); a != 0 {
		t.Fatalf("hot operations allocated %v times per run", a)
	}
}
