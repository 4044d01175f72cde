// Package stats provides deterministic random number generation,
// probability distributions, and summary statistics used throughout the
// Cool library.
//
// All randomness in the repository flows through RNG so that every
// experiment is reproducible bit-for-bit from an explicit seed.
package stats

import (
	"math"
)

// RNG is a deterministic pseudo-random number generator based on the
// splitmix64 finalizer feeding a xoshiro256** core. It implements the
// subset of math/rand's API used by this repository and adds the
// distributions the paper's random charging model needs (Section V).
//
// The zero value is not valid; use NewRNG.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// Seed the xoshiro256** state with successive splitmix64 outputs, as
	// recommended by the xoshiro authors, so that even adjacent seeds
	// yield decorrelated streams.
	s := seed
	for i := range r.s {
		s += splitMixGamma
		r.s[i] = SplitMix64(s)
	}
	return r
}

// splitMixGamma is the golden-ratio increment of the splitmix64
// sequence.
const splitMixGamma = 0x9e3779b97f4a7c15

// SplitMix64 applies the splitmix64 finalizer (Steele, Lea & Flood) to
// x: a cheap bijective mixer whose outputs over any sequence of distinct
// inputs are statistically independent. It is the repository's standard
// way to derive decorrelated per-shard seeds from (base seed, shard
// index) pairs without sequential state.
func SplitMix64(x uint64) uint64 {
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// StreamSeed derives the seed of independent stream i from a base seed,
// SplitMix-style: each (seed, stream) pair maps to a decorrelated value
// that depends only on its inputs, so concurrent workers can compute
// their streams without coordination and in any order.
func StreamSeed(seed, stream uint64) uint64 {
	return SplitMix64(seed + (stream+1)*splitMixGamma)
}

// Split derives a new, statistically independent generator from r. It is
// used to hand independent streams to concurrent workers without sharing
// a lock.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xa5a5a5a5a5a5a5a5)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 computes the 128-bit product of a and b, returning high and low
// 64-bit halves without importing math/bits semantics ambiguity.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Shuffle pseudo-randomizes the order of n elements using swap, via the
// Fisher–Yates algorithm.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Normal returns a normal variate with the given mean and standard
// deviation. It panics if sigma is negative.
func (r *RNG) Normal(mean, sigma float64) float64 {
	if sigma < 0 {
		panic("stats: Normal called with negative sigma")
	}
	return mean + sigma*r.NormFloat64()
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1) by
// inversion.
func (r *RNG) ExpFloat64() float64 {
	// 1-Float64() is in (0,1], avoiding log(0).
	return -math.Log(1 - r.Float64())
}

// Exponential returns an exponential variate with the given mean. It
// panics if mean is not positive.
func (r *RNG) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic("stats: Exponential called with non-positive mean")
	}
	return mean * r.ExpFloat64()
}

// Poisson returns a Poisson variate with the given mean lambda. For
// small lambda it uses Knuth multiplication; for large lambda the
// transformed-rejection method PTRS of Hörmann, which is accurate and
// fast for arbitrary rates.
func (r *RNG) Poisson(lambda float64) int {
	switch {
	case lambda <= 0:
		return 0
	case lambda < 30:
		return r.poissonKnuth(lambda)
	default:
		return r.poissonPTRS(lambda)
	}
}

func (r *RNG) poissonKnuth(lambda float64) int {
	limit := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

func (r *RNG) poissonPTRS(lambda float64) int {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lhs := math.Log(v * invAlpha / (a/(us*us) + b))
		rhs := -lambda + k*math.Log(lambda) - logFactorial(k)
		if lhs <= rhs {
			return int(k)
		}
	}
}

// logFactorial returns ln(k!) via Stirling's series for large k and a
// direct product for small k.
func logFactorial(k float64) float64 {
	if k < 10 {
		f := 1.0
		for i := 2.0; i <= k; i++ {
			f *= i
		}
		return math.Log(f)
	}
	// Stirling with correction terms.
	return k*math.Log(k) - k + 0.5*math.Log(2*math.Pi*k) +
		1/(12*k) - 1/(360*k*k*k)
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// UniformRange returns a uniform value in [lo, hi). It panics if hi < lo.
func (r *RNG) UniformRange(lo, hi float64) float64 {
	if hi < lo {
		panic("stats: UniformRange called with hi < lo")
	}
	return lo + (hi-lo)*r.Float64()
}
