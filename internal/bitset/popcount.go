//go:build !cool_popcnt_asm

// This file is the portable word-kernel layer of the package: every
// whole-set operation (Count, And, AndCount) bottoms out in one of the
// loops below, restructured into 4-word unrolled blocks so the compiler
// emits straight-line POPCNT/AND sequences with the loop-control
// overhead amortized over 256 elements per iteration.
//
// The build tag is the clean seam for a platform kernel: a future
// `cool_popcnt_asm` file can provide the same three functions in
// assembly (e.g. AVX2 Harley–Seal popcount) without touching any
// caller — Bitset methods, the submodular oracles, and the scheduling
// engines all go through these symbols and nothing else. Whatever the
// implementation, the contract is exact integer arithmetic: results
// must be identical to the scalar reference loops (the tests keep
// Bitset.CountScalar as one), never merely close.
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

// andWords intersects dst with src in place (dst[k] &= src[k]).
// len(src) must be at least len(dst).
func andWords(dst, src []uint64) {
	src = src[:len(dst)] // hoist the length relation for bounds-check elimination
	n := len(dst) &^ 3
	for k := 0; k < n; k += 4 {
		d := dst[k : k+4 : k+4]
		s := src[k : k+4 : k+4]
		d[0] &= s[0]
		d[1] &= s[1]
		d[2] &= s[2]
		d[3] &= s[3]
	}
	for k := n; k < len(dst); k++ {
		dst[k] &= src[k]
	}
}

// popcountAndWords returns the number of set bits in the intersection
// a ∧ b without materializing it. len(b) must be at least len(a).
func popcountAndWords(a, b []uint64) int {
	b = b[:len(a)]
	var c0, c1, c2, c3 int
	n := len(a) &^ 3
	for k := 0; k < n; k += 4 {
		x := a[k : k+4 : k+4]
		y := b[k : k+4 : k+4]
		c0 += bits.OnesCount64(x[0] & y[0])
		c1 += bits.OnesCount64(x[1] & y[1])
		c2 += bits.OnesCount64(x[2] & y[2])
		c3 += bits.OnesCount64(x[3] & y[3])
	}
	for k := n; k < len(a); k++ {
		c0 += bits.OnesCount64(a[k] & b[k])
	}
	return c0 + c1 + c2 + c3
}
