// Package rng provides a deterministic, splittable pseudo-random number
// generator and the distribution samplers used throughout the simulator.
//
// Every stochastic component in the repository draws from an explicit
// *Stream so that experiments are exactly reproducible from a seed, and
// so that independent subsystems (e.g. the disturbance model and the
// retention model of the same DRAM device) consume independent streams
// that do not perturb each other when one of them is reconfigured.
//
// The core generator is xoshiro256**, seeded through SplitMix64, the
// combination recommended by the xoshiro authors. It is not
// cryptographically secure; it is a simulation PRNG.
package rng

import (
	"math"
	"math/bits"
)

// Stream is a deterministic pseudo-random number stream. The zero value
// is not usable; construct streams with New or Stream.Split.
type Stream struct {
	s0, s1, s2, s3 uint64
	// spare Gaussian for the polar method.
	haveSpare bool
	spare     float64
	// Pad to a full cache line: streams drawn on every activation by
	// channel shards running in parallel must not share one.
	_ [2]uint64 `snapshot:"derived"`
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding, as recommended by the xoshiro authors.
func splitMix64(state *uint64) uint64 {
	*state += golden
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Stream seeded from the given 64-bit seed. Distinct seeds
// yield statistically independent streams.
func New(seed uint64) *Stream {
	st := seed
	s := &Stream{}
	s.s0 = splitMix64(&st)
	s.s1 = splitMix64(&st)
	s.s2 = splitMix64(&st)
	s.s3 = splitMix64(&st)
	// xoshiro must not start from the all-zero state.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 1
	}
	return s
}

// golden is 2^64/φ, SplitMix64's increment and Sub's key step.
const golden = 0x9e3779b97f4a7c15

// Sub returns substream key of seed: New(seed + golden·key). It is how
// one seed fans out over indexed parts (the devices of a topology, the
// shards of a fleet); Sub(seed, 0) is New(seed), so part 0 draws
// exactly what an unkeyed build of the same seed draws.
func Sub(seed, key uint64) *Stream { return New(seed + golden*key) }

// Split derives a new independent stream from s. The parent stream is
// advanced, so repeated Splits yield distinct children. Children with
// the same label drawn in the same order are reproducible.
func (s *Stream) Split() *Stream {
	return New(s.Uint64() ^ 0xd2b74407b1ce6e93)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Stream) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's
// multiply-shift rejection method. It panics if n == 0.
func (s *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return s.Uint64() & (n - 1)
	}
	// Rejection sampling to remove modulo bias.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := s.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Bernoulli is a precomputed Stream.Bool(p) draw for hot loops that
// draw with one probability many times. Float64() < p holds exactly
// when u>>11 < ceil(p·2^53), so the draw compares integers and never
// converts; it consumes the stream exactly as Bool does.
type Bernoulli struct {
	// thresh is ceil(p·2^53): a draw u succeeds when u>>11 < thresh.
	thresh uint64
	// fixed marks p <= 0 and p >= 1, where Bool draws nothing and
	// returns thresh != 0.
	fixed bool
}

// NewBernoulli precomputes the draw for probability p.
func NewBernoulli(p float64) Bernoulli {
	switch {
	case p <= 0:
		return Bernoulli{fixed: true}
	case p >= 1:
		return Bernoulli{thresh: 1, fixed: true}
	case p > 0:
		// p·2^53 is exact: scaling by a power of two.
		return Bernoulli{thresh: uint64(math.Ceil(p * (1 << 53)))}
	}
	return Bernoulli{} // NaN: Bool draws and never succeeds
}

// Bernoulli draws once with the precomputed probability; it returns
// what Bool(p) returns and advances the stream identically.
func (s *Stream) Bernoulli(b Bernoulli) bool {
	if b.fixed {
		return b.thresh != 0
	}
	return s.Uint64()>>11 < b.thresh
}

// PeekMisses draws ahead without advancing s: it returns how many
// leading groups of `group` draws with b, at most max groups, miss
// every draw, and the stream as it would stand after exactly those
// groups. The draws run on registers, so a long run of misses costs
// a few cycles per draw.
func (s *Stream) PeekMisses(b Bernoulli, group, max int) (int, Stream) {
	after := *s
	if b.fixed {
		if b.thresh != 0 {
			return 0, after
		}
		return max, after
	}
	s0, s1, s2, s3 := s.s0, s.s1, s.s2, s.s3
	n := 0
	for ; n < max; n++ {
		t0, t1, t2, t3 := s0, s1, s2, s3
		hit := false
		for g := 0; g < group; g++ {
			// One Uint64 step, on locals.
			u := rotl(t1*5, 7) * 9
			t := t1 << 17
			t2 ^= t0
			t3 ^= t1
			t1 ^= t2
			t0 ^= t3
			t2 ^= t
			t3 = rotl(t3, 45)
			if u>>11 < b.thresh {
				hit = true
				break
			}
		}
		if hit {
			break
		}
		s0, s1, s2, s3 = t0, t1, t2, t3
	}
	after.s0, after.s1, after.s2, after.s3 = s0, s1, s2, s3
	return n, after
}

// Normal returns a sample from the normal distribution with the given
// mean and standard deviation, using the Marsaglia polar method.
func (s *Stream) Normal(mean, stddev float64) float64 {
	if s.haveSpare {
		s.haveSpare = false
		return mean + stddev*s.spare
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			f := math.Sqrt(-2 * math.Log(q) / q)
			s.spare = v * f
			s.haveSpare = true
			return mean + stddev*u*f
		}
	}
}

// LogNormal returns a sample whose natural logarithm is normally
// distributed with parameters mu and sigma.
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Exponential returns a sample from the exponential distribution with
// the given mean (mean = 1/rate).
func (s *Stream) Exponential(mean float64) float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -mean * math.Log(u)
		}
	}
}

// Poisson returns a sample from the Poisson distribution with the given
// mean. For large means it uses the normal approximation, which is more
// than adequate for the error-count magnitudes simulated here.
func (s *Stream) Poisson(mean float64) int64 {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		v := s.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int64(v + 0.5)
	}
	// Knuth's method for small means.
	l := math.Exp(-mean)
	var k int64
	p := 1.0
	for {
		p *= s.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Binomial returns a sample from Binomial(n, p). It uses exact Bernoulli
// summation for small n and a Poisson or normal approximation for large
// n, matching the regimes where those approximations are accurate.
func (s *Stream) Binomial(n int64, p float64) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	mean := float64(n) * p
	switch {
	case n <= 64:
		var k int64
		for i := int64(0); i < n; i++ {
			if s.Float64() < p {
				k++
			}
		}
		return k
	case mean < 32 && p < 0.05:
		// Poisson limit theorem regime.
		k := s.Poisson(mean)
		if k > n {
			k = n
		}
		return k
	default:
		sd := math.Sqrt(float64(n) * p * (1 - p))
		v := s.Normal(mean, sd)
		if v < 0 {
			return 0
		}
		if v > float64(n) {
			return n
		}
		return int64(v + 0.5)
	}
}

// Zipf samples integers in [0, n) with probability proportional to
// 1/(i+1)^theta, by inverting a precomputed CDF. A guide table buckets
// the unit interval into a power-of-two number of equal cells and
// records, for each cell boundary, the index the full CDF search would
// return there; a draw then searches only between its cell's two
// bounds. The search result is monotone in u, so the narrowed search
// returns exactly what a binary search over the whole CDF would.
type Zipf struct {
	cdf []float64
	// guide[j] is the index for u = j/(len(guide)-1).
	guide []int32
	src   *Stream
}

// NewZipf builds a Zipf sampler over [0, n) with exponent theta > 0.
func NewZipf(src *Stream, n int, theta float64) *Zipf {
	if n <= 0 || n > math.MaxInt32 {
		panic("rng: NewZipf with n out of range")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return newZipfCDF(src, cdf)
}

// newZipfCDF builds a sampler over a non-decreasing cdf, with one guide
// cell per row rounded down to a power of two, so that the cell
// boundaries j/cells and the cell of a draw, floor(u*cells), are exact.
func newZipfCDF(src *Stream, cdf []float64) *Zipf {
	n := len(cdf)
	cells := 1 << (bits.Len(uint(n)) - 1)
	guide := make([]int32, cells+1)
	i := 0
	for j := range guide {
		u := float64(j) / float64(cells)
		for i < n-1 && cdf[i] < u {
			i++
		}
		guide[j] = int32(i)
	}
	return &Zipf{cdf: cdf, guide: guide, src: src}
}

// WithSource returns a sampler that draws from src over z's CDF and
// guide table, which the two share read-only: it draws exactly what
// NewZipf(src, n, theta) would, without rebuilding the tables.
func (z *Zipf) WithSource(src *Stream) *Zipf {
	return &Zipf{cdf: z.cdf, guide: z.guide, src: src}
}

// Next returns the next Zipf-distributed sample.
func (z *Zipf) Next() int { return z.index(z.src.Float64()) }

// index returns the smallest i with cdf[i] >= u, or n-1 if there is
// none, for u in [0, 1).
func (z *Zipf) index(u float64) int {
	j := int(u * float64(len(z.guide)-1))
	lo, hi := int(z.guide[j]), int(z.guide[j+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
