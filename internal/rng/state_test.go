package rng

import (
	"errors"
	"testing"

	"repro/internal/snapshot"
)

// drainers exercise every generator type the simulator uses. Each
// returns a comparable fingerprint of n draws so that a restored
// stream can be pinned against the uninterrupted one.
var drainers = []struct {
	name string
	draw func(s *Stream) uint64
}{
	{"Uint64", func(s *Stream) uint64 { return s.Uint64() }},
	{"Intn", func(s *Stream) uint64 { return uint64(s.Intn(1000003)) }},
	{"Uint64n", func(s *Stream) uint64 { return s.Uint64n(0xfffffffb) }},
	{"Uint64nPow2", func(s *Stream) uint64 { return s.Uint64n(1 << 20) }},
	{"Float64", func(s *Stream) uint64 { return uint64(s.Float64() * (1 << 53)) }},
	{"Bool", func(s *Stream) uint64 {
		if s.Bool(0.37) {
			return 1
		}
		return 0
	}},
	{"Normal", func(s *Stream) uint64 { return uint64(int64(s.Normal(5, 2) * 1e6)) }},
	{"LogNormal", func(s *Stream) uint64 { return uint64(int64(s.LogNormal(1, 0.5) * 1e6)) }},
	{"Exponential", func(s *Stream) uint64 { return uint64(int64(s.Exponential(3) * 1e6)) }},
	{"PoissonSmall", func(s *Stream) uint64 { return uint64(s.Poisson(4.2)) }},
	{"PoissonLarge", func(s *Stream) uint64 { return uint64(s.Poisson(500)) }},
	{"BinomialExact", func(s *Stream) uint64 { return uint64(s.Binomial(40, 0.3)) }},
	{"BinomialPoisson", func(s *Stream) uint64 { return uint64(s.Binomial(10000, 0.001)) }},
	{"BinomialNormal", func(s *Stream) uint64 { return uint64(s.Binomial(100000, 0.4)) }},
	{"Perm", func(s *Stream) uint64 {
		p := s.Perm(17)
		var h uint64
		for _, v := range p {
			h = h*31 + uint64(v)
		}
		return h
	}},
	{"Split", func(s *Stream) uint64 { return s.Split().Uint64() }},
}

// TestStateRoundTripEveryGenerator draws from each generator type,
// snapshots mid-stream, continues the original as the uninterrupted
// reference, then restores a fresh stream from the snapshot and pins
// that its continued draws match exactly.
func TestStateRoundTripEveryGenerator(t *testing.T) {
	for _, d := range drainers {
		t.Run(d.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed += 4 {
				s := New(seed)
				for i := 0; i < 100; i++ {
					d.draw(s)
				}
				st := s.State()
				// Uninterrupted reference continuation.
				want := make([]uint64, 200)
				for i := range want {
					want[i] = d.draw(s)
				}
				// Restored continuation.
				restored := FromState(st)
				for i := range want {
					got := d.draw(restored)
					if got != want[i] {
						t.Fatalf("seed %d draw %d after restore: got %d, want %d",
							seed, i, got, want[i])
					}
				}
			}
		})
	}
}

// TestStateCapturesSpareGaussian pins that a snapshot taken while a
// spare polar-method Gaussian is cached restores that spare: the
// first Normal draw after restore must equal the uninterrupted one.
func TestStateCapturesSpareGaussian(t *testing.T) {
	s := New(7)
	s.Normal(0, 1) // generates a pair, caches the spare
	if !s.haveSpare {
		t.Fatal("test setup: expected a cached spare after one Normal draw")
	}
	st := s.State()
	if !st.HaveSpare {
		t.Fatal("State dropped the cached spare Gaussian")
	}
	want := s.Normal(0, 1)
	got := FromState(st).Normal(0, 1)
	if got != want {
		t.Fatalf("first Normal after restore = %v, want %v (spare not restored)", got, want)
	}
}

// TestZipfSourceRestore pins that a Zipf sampler over a restored
// source stream continues the uninterrupted sequence.
func TestZipfSourceRestore(t *testing.T) {
	src := New(11)
	z := NewZipf(src, 512, 1.1)
	for i := 0; i < 50; i++ {
		z.Next()
	}
	st := src.State()
	want := make([]int, 100)
	for i := range want {
		want[i] = z.Next()
	}
	z2 := NewZipf(FromState(st), 512, 1.1)
	for i := range want {
		if got := z2.Next(); got != want[i] {
			t.Fatalf("Zipf draw %d after restore: got %d, want %d", i, got, want[i])
		}
	}
}

// TestSnapshotSaveLoad round-trips the snapshot-payload encoding.
func TestSnapshotSaveLoad(t *testing.T) {
	s := New(42)
	s.Normal(0, 1) // populate the spare so all fields are non-trivial
	var w snapshot.Writer
	s.SaveState(&w)
	want := []uint64{s.Uint64(), s.Uint64(), s.Uint64()}

	restored := New(999) // position gets overwritten by LoadState
	if err := restored.LoadState(snapshot.NewReader(w.Bytes())); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	for i, wv := range want {
		if got := restored.Uint64(); got != wv {
			t.Fatalf("draw %d after LoadState: got %d, want %d", i, got, wv)
		}
	}
}

// TestLoadStateRejectsZeroState pins that an all-zero xoshiro state —
// which the generator can never reach — is refused as corrupt.
func TestLoadStateRejectsZeroState(t *testing.T) {
	var w snapshot.Writer
	w.Tag("rng")
	for i := 0; i < 4; i++ {
		w.U64(0)
	}
	w.Bool(false)
	w.F64(0)
	s := New(1)
	err := s.LoadState(snapshot.NewReader(w.Bytes()))
	if !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for all-zero state, got %v", err)
	}
}
