package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at step %d", i)
		}
	}
}

// TestSub: key 0 is the unkeyed stream, and key k steps the seed by
// k golden-ratio increments.
func TestSub(t *testing.T) {
	same := func(a, b *Stream) bool {
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	for _, seed := range []uint64{0, 1, 5, 0xdeadbeef, ^uint64(0)} {
		if !same(Sub(seed, 0), New(seed)) {
			t.Fatalf("Sub(%#x, 0) differs from New(%#x)", seed, seed)
		}
		for _, key := range []uint64{1, 2, 7, 1<<40 + 3} {
			if !same(Sub(seed, key), New(seed+golden*key)) {
				t.Fatalf("Sub(%#x, %d) differs from New(seed + golden·key)", seed, key)
			}
			if same(Sub(seed, key), New(seed)) {
				t.Fatalf("Sub(%#x, %d) repeats the unkeyed stream", seed, key)
			}
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first output")
	}
}

func TestZeroSeedUsable(t *testing.T) {
	s := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		seen[s.Uint64()] = true
	}
	if len(seen) < 60 {
		t.Fatalf("zero-seeded stream looks degenerate: %d distinct of 64", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		s := New(seed)
		for i := 0; i < 50; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	s := New(11)
	const n = 10
	counts := make([]int, n)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[s.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates too far from %v", i, c, want)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(5)
	hits := 0
	const draws = 200000
	for i := 0; i < draws; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", got)
	}
	if s.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
}

// bernoulliProbs are the probabilities the Bernoulli tests cover: the
// edges, the mitigation rates, and values where p·2^53 is an integer,
// so a draw can land exactly on the threshold.
var bernoulliProbs = []float64{
	0, math.Ldexp(1, -60), 0.005, 0.01, 0.5, 1 - math.Ldexp(1, -53), 1,
	math.Ldexp(1, -53), math.Ldexp(3, -53), math.Ldexp(12345, -53), 0.25,
	0.5 + math.Ldexp(1, -53), math.Ldexp(1<<52-1, -53),
}

func TestBernoulliMatchesBool(t *testing.T) {
	for _, p := range bernoulliProbs {
		a, b := New(77), New(77)
		bern := NewBernoulli(p)
		for i := 0; i < 1_000_000; i++ {
			if got, want := b.Bernoulli(bern), a.Bool(p); got != want {
				t.Fatalf("p=%v draw %d: Bernoulli %v, Bool %v", p, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("p=%v: streams out of lockstep after 1e6 draws", p)
		}
	}
}

// TestBernoulliThresholdEdges checks the integer comparison against
// Bool's float comparison on the draws either side of the threshold,
// which a random stream almost never produces.
func TestBernoulliThresholdEdges(t *testing.T) {
	for _, p := range append(bernoulliProbs, math.NaN()) {
		bern := NewBernoulli(p)
		if bern.fixed {
			continue
		}
		for _, x := range []uint64{0, 1, bern.thresh - 1, bern.thresh, bern.thresh + 1, 1<<53 - 1} {
			if x >= 1<<53 {
				continue
			}
			u := x<<11 | 0x7ff
			if got, want := u>>11 < bern.thresh, float64(u>>11)/(1<<53) < p; got != want {
				t.Errorf("p=%v x=%d: integer draw %v, float draw %v", p, x, got, want)
			}
		}
	}
}

// TestBernoulliPeekMatchesDrawing checks the register peek against
// drawing group-wise on a copy: the same run length, the same stream
// after the run, and the peeked stream untouched.
func TestBernoulliPeekMatchesDrawing(t *testing.T) {
	for _, p := range bernoulliProbs {
		bern := NewBernoulli(p)
		for _, group := range []int{1, 2, 3} {
			src := New(91)
			for trial := 0; trial < 2000; trial++ {
				max := trial % 300
				before := *src
				n, after := src.PeekMisses(bern, group, max)
				if *src != before {
					t.Fatalf("p=%v group %d: PeekMisses advanced the stream", p, group)
				}
				want, ref := 0, *src
				for ; want < max; want++ {
					next := ref
					hit := false
					for g := 0; g < group && !hit; g++ {
						hit = next.Bernoulli(bern)
					}
					if hit {
						break
					}
					ref = next
				}
				if n != want || after != ref {
					t.Fatalf("p=%v group %d max %d: PeekMisses %d, drawing %d (states equal: %v)", p, group, max, n, want, after == ref)
				}
				// Move on past the run (and its hit) for the next trial.
				for i := 0; i <= group*n; i++ {
					src.Uint64()
				}
			}
		}
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(9)
	const draws = 200000
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		v := s.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Errorf("normal variance = %v, want ~4", variance)
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := New(13)
	const draws = 100001
	vals := make([]float64, draws)
	for i := range vals {
		vals[i] = s.LogNormal(math.Log(50), 0.5)
	}
	// Median of lognormal is exp(mu) = 50. Count below/above.
	below := 0
	for _, v := range vals {
		if v < 50 {
			below++
		}
	}
	frac := float64(below) / draws
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("lognormal median fraction below = %v, want ~0.5", frac)
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(17)
	const draws = 200000
	var sum float64
	for i := 0; i < draws; i++ {
		v := s.Exponential(4)
		if v < 0 {
			t.Fatal("exponential sample negative")
		}
		sum += v
	}
	mean := sum / draws
	if math.Abs(mean-4) > 0.05 {
		t.Fatalf("exponential mean = %v, want ~4", mean)
	}
}

func TestPoissonMean(t *testing.T) {
	s := New(19)
	for _, mean := range []float64{0.5, 3, 20, 500} {
		const draws = 50000
		var sum float64
		for i := 0; i < draws; i++ {
			sum += float64(s.Poisson(mean))
		}
		got := sum / draws
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%v) mean = %v", mean, got)
		}
	}
	if s.Poisson(0) != 0 || s.Poisson(-1) != 0 {
		t.Error("Poisson of non-positive mean should be 0")
	}
}

func TestBinomialMean(t *testing.T) {
	s := New(23)
	cases := []struct {
		n int64
		p float64
	}{{10, 0.5}, {1000, 0.01}, {1000000, 0.0001}, {100000, 0.4}}
	for _, c := range cases {
		const draws = 20000
		var sum float64
		for i := 0; i < draws; i++ {
			v := s.Binomial(c.n, c.p)
			if v < 0 || v > c.n {
				t.Fatalf("Binomial(%d,%v) out of range: %d", c.n, c.p, v)
			}
			sum += float64(v)
		}
		want := float64(c.n) * c.p
		got := sum / draws
		if math.Abs(got-want) > 0.05*want+0.1 {
			t.Errorf("Binomial(%d,%v) mean = %v, want %v", c.n, c.p, got, want)
		}
	}
}

func TestBinomialEdges(t *testing.T) {
	s := New(29)
	if s.Binomial(100, 0) != 0 {
		t.Error("p=0 should give 0")
	}
	if s.Binomial(100, 1) != 100 {
		t.Error("p=1 should give n")
	}
	if s.Binomial(0, 0.5) != 0 {
		t.Error("n=0 should give 0")
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(31)
	z := NewZipf(s, 100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		v := z.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf sample out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	// Rank-0 frequency for theta=1, n=100 is 1/H(100) ~ 0.1928.
	frac := float64(counts[0]) / 100000
	if math.Abs(frac-0.1928) > 0.02 {
		t.Errorf("Zipf rank-0 frequency = %v, want ~0.193", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkNormal(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Normal(0, 1)
	}
}
