package flash

// Equivalence tests for the word-parallel hot paths: for the same
// stream, Block (word-at-a-time sensing/programming, hoisted physics,
// reused scratch) and Reference (the retained seed implementation:
// strictly cell-at-a-time, per-cell recomputation) must produce
// identical page bits, voltages, counters and wordline state under
// identical command sequences — the same discipline as
// disturb/equiv_test.go and retention/equiv_test.go.

import (
	"testing"

	"repro/internal/rng"
)

// agedEquivParams makes every physics mechanism bite at small test
// geometry: strong retention and read disturb, visible wear, active
// interference, so any arithmetic re-association in the fast path
// shows up as a flipped bit.
func agedEquivParams() Params {
	p := DefaultParams()
	p.RetCoef = 0.02
	p.RDCoef = 5e-5
	p.WearCoef = 0.9
	p.Gamma = 0.05
	return p
}

// twinBlocks builds a (Block, Reference) pair from equal streams.
func twinBlocks(t *testing.T, p Params, wls, cells int, seed uint64) (*Block, *Reference) {
	t.Helper()
	b := NewBlock(p, wls, cells, rng.New(seed))
	r := NewReference(p, wls, cells, rng.New(seed))
	compareBlocks(t, b, r, "construction")
	return b, r
}

// compareBlocks requires bit-identical counters, wordline state and
// cell voltages. Voltages are compared as exact float32 bits: the
// fast path's hoists must preserve the Reference's floating-point
// evaluation order, not merely approximate it.
func compareBlocks(t *testing.T, b *Block, r *Reference, ctx string) {
	t.Helper()
	if b.pe != r.pe || b.reads != r.reads || b.clockHours != r.clockHours {
		t.Fatalf("%s: counters: block (pe=%d reads=%d clock=%v), reference (pe=%d reads=%d clock=%v)",
			ctx, b.pe, b.reads, b.clockHours, r.pe, r.reads, r.clockHours)
	}
	for w := 0; w < b.WLs; w++ {
		if b.state[w] != r.state[w] || b.progHour[w] != r.progHour[w] || b.readBase[w] != r.readBase[w] {
			t.Fatalf("%s: wl %d: block (state=%d prog=%v base=%d), reference (state=%d prog=%v base=%d)",
				ctx, w, b.state[w], b.progHour[w], b.readBase[w], r.state[w], r.progHour[w], r.readBase[w])
		}
		for c := 0; c < b.Cells; c++ {
			if b.v[w][c] != r.v[w][c] {
				t.Fatalf("%s: wl %d cell %d: block v=%x, reference v=%x",
					ctx, w, c, b.v[w][c], r.v[w][c])
			}
		}
		for i := range b.truthLSB[w] {
			if b.truthLSB[w][i] != r.truthLSB[w][i] || b.truthMSB[w][i] != r.truthMSB[w][i] {
				t.Fatalf("%s: wl %d word %d: truth mismatch", ctx, w, i)
			}
		}
	}
}

// comparePages reads every wordline of both implementations at the
// given refs (Block via the zero-alloc Into variants, Reference via
// the seed allocating API) and requires identical page bits. Both
// sides' read counters advance identically, so the pair stays in
// lockstep.
func comparePages(t *testing.T, b *Block, r *Reference, refs ReadRefs, ctx string) {
	t.Helper()
	buf := make([]uint64, b.Cells/64)
	for w := 0; w < b.WLs; w++ {
		got := b.ReadLSBInto(w, refs, buf)
		want := r.ReadLSB(w, refs)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: wl %d LSB word %d: block %#x, reference %#x", ctx, w, i, got[i], want[i])
			}
		}
		got = b.ReadMSBInto(w, refs, buf)
		want = r.ReadMSB(w, refs)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: wl %d MSB word %d: block %#x, reference %#x", ctx, w, i, got[i], want[i])
			}
		}
	}
}

// randPage fills a fresh packed page from the auxiliary stream.
func randPage(aux *rng.Stream, words int) []uint64 {
	pg := make([]uint64, words)
	for i := range pg {
		pg[i] = aux.Uint64()
	}
	return pg
}

// TestBlockMatchesReferenceMixedHistory drives both implementations
// through an interleaved history of full-sequence programs, two-step
// programs (buffered and internal-read), erases, wear, stress reads,
// retention aging and reads at nominal and shifted references, and
// requires bit-identical state throughout. Seeds 1 and 5 are the
// acceptance seeds pinned by ISSUE 7.
func TestBlockMatchesReferenceMixedHistory(t *testing.T) {
	for _, seed := range []uint64{1, 5} {
		const wls, cells = 6, 512
		p := agedEquivParams()
		b, r := twinBlocks(t, p, wls, cells, seed)
		refs := p.NominalRefs()
		aux := rng.New(seed*977 + 3)
		words := cells / 64

		// Mirror of the wordline state machine to pick legal commands.
		st := make([]wlState, wls)
		for iter := 0; iter < 400; iter++ {
			w := aux.Intn(wls)
			switch aux.Intn(10) {
			case 0, 1: // full-sequence program (erase first if needed)
				if st[w] != wlErased {
					b.Erase()
					r.Erase()
					for i := range st {
						st[i] = wlErased
					}
				}
				lsb, msb := randPage(aux, words), randPage(aux, words)
				b.ProgramFull(w, lsb, msb)
				r.ProgramFull(w, lsb, msb)
				st[w] = wlFull
			case 2, 3: // two-step: LSB, disturb the intermediate, then MSB
				if st[w] != wlErased {
					b.Erase()
					r.Erase()
					for i := range st {
						st[i] = wlErased
					}
				}
				lsb := randPage(aux, words)
				b.ProgramLSB(w, lsb)
				r.ProgramLSB(w, lsb)
				n := int64(aux.Intn(5000))
				b.StressReads(n)
				r.StressReads(n)
				msb := randPage(aux, words)
				var buffered []uint64
				if aux.Intn(2) == 0 {
					buffered = lsb
				}
				b.ProgramMSB(w, msb, refs, buffered)
				r.ProgramMSB(w, msb, refs, buffered)
				st[w] = wlFull
			case 4:
				h := float64(aux.Intn(2000)) / 7
				b.AdvanceHours(h)
				r.AdvanceHours(h)
			case 5:
				n := aux.Intn(3000)
				b.CycleWear(n)
				r.CycleWear(n)
			case 6:
				n := int64(aux.Intn(20000))
				b.StressReads(n)
				r.StressReads(n)
			case 7: // shifted-reference read sweep (RFR-style)
				d := float64(aux.Intn(9)-4) * 0.05
				comparePages(t, b, r, refs.Shifted(d, d, d), "shifted read")
			case 8: // RBER probes must agree exactly
				if gb, gr := b.RBER(w), r.RBER(w); gb != gr {
					t.Fatalf("seed %d iter %d: RBER wl %d: block %v, reference %v", seed, iter, w, gb, gr)
				}
			case 9:
				b.Erase()
				r.Erase()
				for i := range st {
					st[i] = wlErased
				}
			}
		}
		compareBlocks(t, b, r, "mixed history")
		comparePages(t, b, r, refs, "final nominal read")
		// The implementations must also have consumed their streams
		// identically: one more program from each must still agree.
		b.Erase()
		r.Erase()
		lsb, msb := randPage(aux, words), randPage(aux, words)
		b.ProgramFull(0, lsb, msb)
		r.ProgramFull(0, lsb, msb)
		compareBlocks(t, b, r, "post-history program")
	}
}

// TestBlockMatchesReferenceAgedReads pins the pure read path (the 10x
// target of BENCH_5) on a heavily aged block: high P/E, long
// retention, massive read disturb — the regime where the hoisted
// disturb/retention chains carry the largest magnitudes and any
// re-association would be visible.
func TestBlockMatchesReferenceAgedReads(t *testing.T) {
	for _, seed := range []uint64{1, 5} {
		const wls, cells = 4, 1024
		p := agedEquivParams()
		b, r := twinBlocks(t, p, wls, cells, seed)
		refs := p.NominalRefs()
		aux := rng.New(seed + 11)
		words := cells / 64
		for w := 0; w < wls; w++ {
			lsb, msb := randPage(aux, words), randPage(aux, words)
			b.ProgramFull(w, lsb, msb)
			r.ProgramFull(w, lsb, msb)
		}
		b.CycleWear(30000)
		r.CycleWear(30000)
		b.StressReads(200000)
		r.StressReads(200000)
		b.AdvanceHours(24 * 365)
		r.AdvanceHours(24 * 365)
		comparePages(t, b, r, refs, "aged nominal")
		for _, d := range []float64{-0.3, -0.1, 0.1, 0.3} {
			comparePages(t, b, r, refs.Shifted(d, d/2, -d), "aged shifted")
		}
		compareBlocks(t, b, r, "aged reads")
	}
}
