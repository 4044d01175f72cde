// Package bitset provides a fixed-universe word-array set: one bit per
// element of {0, …, n−1}, packed 64 elements per uint64 word.
//
// It is the membership representation of the submodular-oracle hot path
// (see internal/submodular): Add/Remove/Contains are single-word
// bit operations with zero allocations.
// All operations are O(1) or O(n/64) with perfectly predictable,
// cache-friendly memory access.
//
// A Bitset is not safe for concurrent mutation; concurrent Contains /
// Members calls are safe provided no Add, Remove or Clear runs
// at the same time.
package bitset

import (
	"fmt"
	"math/bits"
)

// Bitset is a set over the fixed universe {0, …, n−1}. The zero value
// is an empty set over an empty universe; use New for a sized one.
type Bitset struct {
	words []uint64
	n     int
}

// New returns an empty set over the universe {0, …, n−1}.
func New(n int) Bitset {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative universe size %d", n))
	}
	return Bitset{words: make([]uint64, (n+63)>>6), n: n}
}

// Len returns the universe size n, not the number of members.
func (s Bitset) Len() int { return s.n }

// check panics when v is outside the universe. The explicit check
// matters because v>>6 can land inside the word slice even when v ≥ n,
// which would silently corrupt the set.
func (s Bitset) check(v int) {
	if v < 0 || v >= s.n {
		panic(fmt.Sprintf("bitset: element %d outside universe [0,%d)", v, s.n))
	}
}

// Contains reports whether v is a member.
func (s Bitset) Contains(v int) bool {
	s.check(v)
	return s.words[v>>6]&(1<<(uint(v)&63)) != 0
}

// Add inserts v. Adding an existing member is a no-op.
func (s Bitset) Add(v int) {
	s.check(v)
	s.words[v>>6] |= 1 << (uint(v) & 63)
}

// Remove deletes v. Removing a non-member is a no-op.
func (s Bitset) Remove(v int) {
	s.check(v)
	s.words[v>>6] &^= 1 << (uint(v) & 63)
}

// Clear empties the set in place.
func (s Bitset) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// AppendMembers appends the members in ascending order to dst and
// returns the extended slice. With a dst of sufficient capacity it does
// not allocate.
func (s Bitset) AppendMembers(dst []int) []int {
	for i, w := range s.words {
		base := i << 6
		for w != 0 {
			dst = append(dst, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// ForEach calls fn for every member in ascending order.
func (s Bitset) ForEach(fn func(v int)) {
	for i, w := range s.words {
		base := i << 6
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
