//go:build !cool_popcnt_asm

// This file is the float scatter-kernel layer of the oracle hot path:
// the per-target survival update of DetectionUtility.Eval, the
// target-major accumulation of the bulk marginals, and the weighted
// complement reduction all bottom out in the loops below, restructured
// into 4-element unrolled blocks.
//
// Bit-identity contract: every kernel performs exactly the same
// floating-point operations on exactly the same elements in exactly
// the same program order as the scalar loop it replaces — the unroll
// only amortizes loop control and widens the instruction window, it
// never reassociates an accumulation. Scatter updates are emitted as
// ordered read-modify-write statements, so the kernels are exact even
// if an index appears twice in one call; the single sequential
// accumulator of weightedComplementSum keeps the reduction order of
// the scalar sum. The engines' cross-engine determinism tests and the
// Eval-vs-EvalScalar check of TestDetectionOracleMatchesEval enforce
// this empirically.
//
// The build tag mirrors internal/bitset/popcount.go: a future
// `cool_popcnt_asm` build can swap in platform SIMD kernels (with the
// same exactness obligations) without touching any oracle code.
package submodular

// mulScatter applies surv[idx[k]] *= val[k] for every k, in ascending
// k order. It is the survival-product update of DetectionUtility.Eval
// over one sensor's CSR row. len(val) must be at least len(idx).
func mulScatter(surv []float64, idx []int32, val []float64) {
	val = val[:len(idx)] // hoist the length relation for bounds-check elimination
	n := len(idx) &^ 3
	for k := 0; k < n; k += 4 {
		// Full slice expressions bind the block once so the compiler can
		// drop the per-load bounds checks on idx/val (the surv[...] checks
		// remain — the indices are data). Same trick as bitset's kernels.
		i := idx[k : k+4 : k+4]
		v := val[k : k+4 : k+4]
		surv[i[0]] *= v[0]
		surv[i[1]] *= v[1]
		surv[i[2]] *= v[2]
		surv[i[3]] *= v[3]
	}
	for k := n; k < len(idx); k++ {
		surv[idx[k]] *= val[k]
	}
}

// gainScatter applies out[idx[k]] += w * (e - e*q[k]) for every k, in
// ascending k order — one target's contribution to every covering
// sensor's marginal gain (the inner loop of DetectionOracle.BulkGain).
// len(q) must be at least len(idx).
func gainScatter(out []float64, idx []int32, q []float64, w, e float64) {
	q = q[:len(idx)]
	n := len(idx) &^ 3
	for k := 0; k < n; k += 4 {
		i := idx[k : k+4 : k+4]
		p := q[k : k+4 : k+4]
		out[i[0]] += w * (e - e*p[0])
		out[i[1]] += w * (e - e*p[1])
		out[i[2]] += w * (e - e*p[2])
		out[i[3]] += w * (e - e*p[3])
	}
	for k := n; k < len(idx); k++ {
		out[idx[k]] += w * (e - e*q[k])
	}
}

// addScatter applies out[idx[k]] += val for every k, in ascending k
// order — one uncovered item's value pushed to every covering sensor
// (the inner loop of CoverageOracle.BulkGain).
func addScatter(out []float64, idx []int32, val float64) {
	n := len(idx) &^ 3
	for k := 0; k < n; k += 4 {
		i := idx[k : k+4 : k+4]
		out[i[0]] += val
		out[i[1]] += val
		out[i[2]] += val
		out[i[3]] += val
	}
	for k := n; k < len(idx); k++ {
		out[idx[k]] += val
	}
}

// weightedComplementSum returns Σ_k w[k]·(1 − surv[k]) accumulated
// strictly left to right into a single accumulator — the reduction at
// the end of DetectionUtility.Eval. The unroll amortizes loop control
// only; the accumulation order (and therefore every intermediate
// rounding) is that of the scalar loop. len(surv) must be at least
// len(w).
func weightedComplementSum(w, surv []float64) float64 {
	surv = surv[:len(w)]
	var total float64
	n := len(w) &^ 3
	for k := 0; k < n; k += 4 {
		a := w[k : k+4 : k+4]
		s := surv[k : k+4 : k+4]
		total += a[0] * (1 - s[0])
		total += a[1] * (1 - s[1])
		total += a[2] * (1 - s[2])
		total += a[3] * (1 - s[3])
	}
	for k := n; k < len(w); k++ {
		total += w[k] * (1 - surv[k])
	}
	return total
}
