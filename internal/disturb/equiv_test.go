package disturb

// Equivalence tests for the flat-index and batched hot paths: for the
// same stream, Model (flat slices, batched dispatch) and Reference (the
// retained seed implementation: map indexes, strictly per-activation)
// must produce identical flip sets, counters, cell states and device
// contents under identical command sequences.

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dram"
	"repro/internal/rng"
)

// twin builds a (device, model) pair plus its (device, reference) twin
// with identical sampled populations and identical cell contents.
func twin(t *testing.T, g dram.Geometry, p Params, seed uint64) (*dram.Device, *Model, *dram.Device, *Reference) {
	t.Helper()
	dm := dram.NewDevice(g)
	dr := dram.NewDevice(g)
	m := NewModel(g, p, rng.New(seed))
	r := NewReference(g, p, rng.New(seed))
	if m.WeakCellCount() != r.WeakCellCount() {
		t.Fatalf("population mismatch: model %d cells, reference %d", m.WeakCellCount(), r.WeakCellCount())
	}
	checkStoreMatchesReference(t, m, r, "sampled")
	dm.AttachFault(m)
	dr.AttachFault(r)
	for b := 0; b < g.Banks; b++ {
		for row := 0; row < g.Rows; row++ {
			pat := uint64(0xaaaaaaaaaaaaaaaa)
			if row%2 == 1 {
				pat = 0x5555555555555555
			}
			dm.FillPhysRow(b, row, pat)
			dr.FillPhysRow(b, row, pat)
		}
	}
	return dm, m, dr, r
}

// compareState requires bit-identical device contents, flip counters
// and per-cell pressure/flipped state.
func compareState(t *testing.T, dm *dram.Device, m *Model, dr *dram.Device, r *Reference, ctx string) {
	t.Helper()
	if m.TotalFlips() != r.TotalFlips() {
		t.Fatalf("%s: flips: model %d, reference %d", ctx, m.TotalFlips(), r.TotalFlips())
	}
	g := dm.Geom
	for b := 0; b < g.Banks; b++ {
		for row := 0; row < g.Rows; row++ {
			wm := dm.PhysRowWords(b, row)
			wr := dr.PhysRowWords(b, row)
			for c := range wm {
				if wm[c] != wr[c] {
					t.Fatalf("%s: bank %d row %d col %d: model %#x, reference %#x",
						ctx, b, row, c, wm[c], wr[c])
				}
			}
		}
	}
	// Shared sampling guarantees the populations are parallel in
	// insertion order, which is the model's save order.
	for i, slot := range m.order {
		cm, cr := m.hammer[slot], r.cells[i]
		if cm.pressure != cr.pressure || cm.flipped != cr.flipped {
			t.Fatalf("%s: cell %d (bank %d row %d bit %d): model (p=%v flipped=%v), reference (p=%v flipped=%v)",
				ctx, i, cr.bank, cr.physRow, cr.bit, cm.pressure, cm.flipped, cr.pressure, cr.flipped)
		}
	}
}

// denseParams returns a vulnerability with enough weak cells, low
// thresholds and every modelled mechanism (dist-2, DPD, asymmetric
// sides) active at the small test geometry.
func denseParams() Params {
	p := DefaultParams()
	p.WeakCellFraction = 5e-3
	p.ThresholdMedian = 120
	p.MinThreshold = 15
	p.ThresholdSigma = 0.9
	p.Dist2Fraction = 0.25
	return p
}

func TestFlatIndexMatchesReferencePerActivation(t *testing.T) {
	g := dram.Geometry{Banks: 2, Rows: 128, Cols: 4}
	dm, m, dr, r := twin(t, g, denseParams(), 42)
	if m.WeakCellCount() == 0 {
		t.Fatal("test needs a non-empty population")
	}
	// A mixed command history: double-sided pairs, single rows,
	// interleaved refreshes, across both banks.
	now := dram.Time(0)
	step := func(d *dram.Device, b, row int) {
		d.Activate(b, row, now)
		d.Precharge(b)
	}
	src := rng.New(7)
	for iter := 0; iter < 30000; iter++ {
		// Activate only even rows of a narrow band, so odd-row victims
		// accumulate pressure across iterations instead of being
		// restored by activations of their own row.
		b := src.Intn(g.Banks)
		row := 1 + 2*src.Intn(7) // odd victim row in 1..13
		now += 49
		switch iter % 5 {
		case 0, 1: // double-sided pair around the victim
			step(dm, b, row-1)
			step(dr, b, row-1)
			now += 49
			step(dm, b, row+1)
			step(dr, b, row+1)
		case 2, 3: // single-sided step
			step(dm, b, row+1)
			step(dr, b, row+1)
		case 4: // refresh the victim row, resetting its epoch
			dm.RefreshPhysRow(b, row, now)
			dr.RefreshPhysRow(b, row, now)
		}
	}
	if m.TotalFlips() == 0 {
		t.Fatal("command history induced no flips; test is vacuous")
	}
	compareState(t, dm, m, dr, r, "mixed history")
}

// hammerCycle applies a whole burst through Device.HammerCycle and
// returns how many device calls it took.
func hammerCycle(d *dram.Device, cy dram.Cycle) (calls int) {
	for done := 0; done < cy.N; calls++ {
		step := cy
		step.Pos = (cy.Pos + done) % len(cy.Rows)
		step.N = cy.N - done
		step.Start = cy.Start + dram.Time(done)*cy.Period
		done += d.HammerCycle(step)
	}
	return calls
}

// perActivation issues the burst as explicit Precharge/Activate
// commands, the shape HammerCycle must reproduce.
func perActivation(d *dram.Device, cy dram.Cycle) {
	for j := 0; j < cy.N; j++ {
		if !cy.ClosedPage {
			d.Precharge(cy.Bank)
		}
		d.Activate(cy.Bank, cy.Rows[(cy.Pos+j)%len(cy.Rows)], cy.Start+dram.Time(j)*cy.Period)
		if cy.ClosedPage {
			d.Precharge(cy.Bank)
		}
	}
}

// TestHammerNMatchesPerActivation pins single-row closed-page cycles
// (the burst shape of the former HammerN) against the reference.
func TestHammerNMatchesPerActivation(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 128, Cols: 4}
	dm, m, dr, r := twin(t, g, denseParams(), 99)
	now := dram.Time(0)
	const period = 49
	for row := 1; row < g.Rows-1; row += 3 {
		n := 100 + (row%7)*57
		cy := dram.Cycle{Rows: []int{row}, N: n, Start: now, Period: period, ClosedPage: true}
		if calls := hammerCycle(dm, cy); calls != 1 {
			t.Fatalf("row %d: single-row burst took %d device calls, want 1", row, calls)
		}
		perActivation(dr, cy)
		now += dram.Time(n) * period
	}
	if m.TotalFlips() == 0 {
		t.Fatal("no flips; test is vacuous")
	}
	compareState(t, dm, m, dr, r, "single-row cycle")
	if dm.Stats != dr.Stats {
		t.Fatalf("stats: model %+v, reference %+v", dm.Stats, dr.Stats)
	}
	for row := 0; row < g.Rows; row++ {
		if dm.LastRestore(0, row) != dr.LastRestore(0, row) {
			t.Fatalf("lastRestore row %d: model %d, reference %d", row, dm.LastRestore(0, row), dr.LastRestore(0, row))
		}
	}
}

// TestHammerPairConflictMatchesPerActivation pins open-page two-row
// cycles (the row-conflict shape of the former HammerPairConflict)
// against the reference. Pairs whose rows host cells coupled to the
// other row used to decline batching; under the horizon they batch.
func TestHammerPairConflictMatchesPerActivation(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 128, Cols: 4}
	dm, m, dr, r := twin(t, g, denseParams(), 1234)
	now := dram.Time(0)
	const period = 49
	// Enter the open state the conflict path starts from.
	dm.Activate(0, 0, now)
	dr.Activate(0, 0, now)
	hazards := 0
	for v := 1; v < g.Rows-1; v += 2 {
		n := 200 + (v%5)*130
		if !m.BatchablePair(0, v-1, v+1) {
			hazards++
		}
		cy := dram.Cycle{Rows: []int{v - 1, v + 1}, N: 2 * n, Start: now + period, Period: period}
		hammerCycle(dm, cy)
		perActivation(dr, cy)
		now += dram.Time(2*n) * period
	}
	if hazards == 0 {
		t.Fatal("no pair hosts a cell coupled to the other row; test is vacuous")
	}
	if m.TotalFlips() == 0 {
		t.Fatal("no flips; test is vacuous")
	}
	compareState(t, dm, m, dr, r, "two-row open-page cycle")
	if dm.OpenRow(0) != dr.OpenRow(0) {
		t.Fatalf("open row: model %d, reference %d", dm.OpenRow(0), dr.OpenRow(0))
	}
	if dm.Stats != dr.Stats {
		t.Fatalf("stats: model %+v, reference %+v", dm.Stats, dr.Stats)
	}
}

// TestHammerCycleMatchesReference drives many-sided cycles — aggressors
// two apart, so distance-2 cells reside in hammered rows coupled to
// other hammered rows, plus decoys — at random cycle positions and
// lengths, both page policies, and requires the reference's state.
func TestHammerCycleMatchesReference(t *testing.T) {
	g := dram.Geometry{Banks: 2, Rows: 96, Cols: 4}
	for _, seed := range []uint64{1, 5, 77} {
		dm, m, dr, r := twin(t, g, denseParams(), seed)
		src := rng.New(seed ^ 0xc1c1e)
		now := dram.Time(0)
		batched := 0
		for iter := 0; iter < 300; iter++ {
			b := src.Intn(g.Banks)
			sides := 2 + src.Intn(4)
			base := src.Intn(g.Rows - 2*sides)
			var rows []int
			for i := 0; i < sides; i++ {
				rows = append(rows, base+2*i)
			}
			for d := src.Intn(3); d > 0; d-- {
				if row := src.Intn(g.Rows); !slices.Contains(rows, row) {
					rows = append(rows, row)
				}
			}
			cy := dram.Cycle{
				Bank: b, Rows: rows, Pos: src.Intn(len(rows)), N: 1 + src.Intn(400),
				Start: now, Period: 49, ClosedPage: iter%2 == 0,
			}
			if cy.ClosedPage {
				dm.Precharge(b)
				dr.Precharge(b)
			}
			if hammerCycle(dm, cy) < cy.N {
				batched++
			}
			perActivation(dr, cy)
			now += dram.Time(cy.N)*cy.Period + 49
			if iter%7 == 0 {
				row := src.Intn(g.Rows)
				dm.RefreshPhysRow(b, row, now)
				dr.RefreshPhysRow(b, row, now)
			}
		}
		if m.TotalFlips() == 0 || batched == 0 {
			t.Fatalf("seed %d: flips %d, batched bursts %d; test is vacuous", seed, m.TotalFlips(), batched)
		}
		compareState(t, dm, m, dr, r, "many-sided cycles")
		if dm.Stats != dr.Stats {
			t.Fatalf("seed %d: stats: model %+v, reference %+v", seed, dm.Stats, dr.Stats)
		}
		for b := 0; b < g.Banks; b++ {
			if dm.OpenRow(b) != dr.OpenRow(b) {
				t.Fatalf("seed %d bank %d: open row: model %d, reference %d", seed, b, dm.OpenRow(b), dr.OpenRow(b))
			}
			for row := 0; row < g.Rows; row++ {
				if dm.LastRestore(b, row) != dr.LastRestore(b, row) {
					t.Fatalf("seed %d bank %d row %d: lastRestore model %d, reference %d",
						seed, b, row, dm.LastRestore(b, row), dr.LastRestore(b, row))
				}
			}
		}
	}
	t.Run("126-row cycle", func(t *testing.T) {
		// The width of rowhammer -mode many: 126 of 320 rows, with
		// every other row of a band hammered so that cells residing in
		// hammered rows are coupled to hammered rows on both sides.
		g := dram.Geometry{Banks: 1, Rows: 320, Cols: 4}
		dm, m, dr, r := twin(t, g, denseParams(), 9)
		var rows []int
		for row := 20; len(rows) < 100; row += 2 {
			rows = append(rows, row)
		}
		src := rng.New(126)
		for len(rows) < 126 {
			if row := src.Intn(g.Rows); !slices.Contains(rows, row) {
				rows = append(rows, row)
			}
		}
		resident, coupled := 0, 0
		for _, row := range rows {
			lo, hi := m.resident(row)
			for _, c := range m.cells[lo:hi] {
				if d := int(c.dist); slices.Contains(rows, row-d) || slices.Contains(rows, row+d) {
					resident++
				}
			}
			for _, inf := range m.influences(row) {
				if !slices.Contains(rows, int(inf.row)) {
					coupled++
				}
			}
		}
		if resident == 0 || coupled == 0 {
			t.Fatalf("resident coupled cells %d, non-resident coupled cells %d; test is vacuous", resident, coupled)
		}
		now := dram.Time(0)
		batched := 0
		for iter := 0; iter < 12; iter++ {
			cy := dram.Cycle{Rows: rows, Pos: src.Intn(len(rows)), N: 1 + src.Intn(3000),
				Start: now, Period: 49, ClosedPage: iter%2 == 0}
			if cy.ClosedPage {
				dm.Precharge(0)
				dr.Precharge(0)
			}
			if hammerCycle(dm, cy) < cy.N {
				batched++
			}
			perActivation(dr, cy)
			now += dram.Time(cy.N)*cy.Period + 49
		}
		if m.TotalFlips() == 0 || batched == 0 {
			t.Fatalf("flips %d, batched bursts %d; test is vacuous", m.TotalFlips(), batched)
		}
		compareState(t, dm, m, dr, r, "126-row cycle")
		checkUnbound(t, m)
	})
	t.Run("back-to-back disjoint cycles", func(t *testing.T) {
		// Alternating bursts over the even and the odd rows of one band:
		// a position left bound by the previous call would make the next
		// one treat its neighbours as hammered.
		g := dram.Geometry{Banks: 1, Rows: 256, Cols: 4}
		dm, m, dr, r := twin(t, g, denseParams(), 3)
		var even, odd []int
		for row := 40; row < 72; row += 2 {
			even = append(even, row)
			odd = append(odd, row+1)
		}
		now := dram.Time(0)
		for iter := 0; iter < 40; iter++ {
			rows := even
			if iter%2 == 1 {
				rows = odd
			}
			cy := dram.Cycle{Rows: rows, N: 50 + 37*iter, Start: now, Period: 49}
			hammerCycle(dm, cy)
			perActivation(dr, cy)
			checkUnbound(t, m)
			now += dram.Time(cy.N)*cy.Period + 49
		}
		if m.TotalFlips() == 0 {
			t.Fatal("no flips; test is vacuous")
		}
		compareState(t, dm, m, dr, r, "back-to-back disjoint cycles")
	})
}

// checkUnbound requires the per-call cycle index to be reset: no row
// holds a position and no row words are bound.
func checkUnbound(t *testing.T, m *Model) {
	t.Helper()
	for row, p := range m.pos {
		if p != -1 {
			t.Fatalf("row %d still bound to cycle position %d", row, p)
		}
	}
	if len(m.words) != 0 {
		t.Fatalf("%d row word slices still bound", len(m.words))
	}
}

// TestHammerHorizonResidentCell pins where the horizon ends for a cell
// residing in a hammered row: unbounded while the pressure it gathers
// between its own row's activations stays below threshold, and just
// before the activation that would flip it otherwise.
func TestHammerHorizonResidentCell(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 2}
	d := dram.NewDevice(g)
	m := NewPlanted(g)
	d.AttachFault(m)
	// A dist-2 cell in row 10, coupled to rows 8 and 12 with weight 1
	// each: one round of the cycle {10, 12, 8} adds 2 after restoring.
	m.InjectWeakCell(0, 10, 5, 3, 1, 2, 1, 1)
	if h := m.HammerHorizon(d, 0, []int{10, 12, 8}, 0, 49); h != math.MaxInt {
		t.Errorf("threshold 3, two additions per round: horizon %d, want unbounded", h)
	}
	m.InjectWeakCell(0, 20, 5, 2, 1, 2, 1, 1)
	// Cycle {20, 22, 18}: after row 20's activation (index 0), index 1
	// adds 1 and index 2 reaches the threshold of 2.
	if h := m.HammerHorizon(d, 0, []int{20, 22, 18}, 0, 49); h != 2 {
		t.Errorf("threshold 2: horizon %d, want 2", h)
	}
	// Starting mid-cycle, the pressure already gathered counts: 1 from
	// row 22 leaves the cell one addition from the threshold, which
	// row 18 at index 0 delivers before row 20 restores it.
	d.Activate(0, 20, 0)
	d.Precharge(0)
	d.Activate(0, 22, 49)
	d.Precharge(0)
	if h := m.HammerHorizon(d, 0, []int{18, 20, 22}, 98, 49); h != 0 {
		t.Errorf("one addition from threshold: horizon %d, want 0", h)
	}
}

func TestPairBatchingDeclinesHazards(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 2}
	m := NewPlanted(g)
	// A dist-2 cell residing in row 10 is coupled to row 12: hammering
	// the (10,12) pair interleaves its restore and accumulate, which
	// batching cannot reproduce.
	m.InjectWeakCell(0, 10, 5, 3, 1, 2, 1, 1)
	if m.BatchablePair(0, 10, 12) {
		t.Error("pair (10,12) with a self-coupled cell must decline batching")
	}
	if !m.BatchablePair(0, 30, 32) {
		t.Error("clean pair should batch")
	}
	if m.BatchablePair(0, 30, 30) {
		t.Error("identical rows must decline")
	}
	// Duplicate injection disables all batching.
	m.InjectWeakCell(0, 20, 7, 3, 1, 1, 1, 1)
	m.InjectWeakCell(0, 20, 7, 5, 0, 1, 1, 1)
	if m.BatchableRow(0, 30) || m.BatchablePair(0, 30, 32) {
		t.Error("duplicate cells must disable batching")
	}
}

// TestHammerNFallbackStillEquivalent injects duplicate cells, which
// hold the horizon at 0: HammerCycle must step one activation at a
// time and still match the reference.
func TestHammerNFallbackStillEquivalent(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 2}
	dm := dram.NewDevice(g)
	dr := dram.NewDevice(g)
	m := NewPlanted(g)
	r := NewReference(g, Params{}, rng.New(1))
	for _, mod := range []func(bank, physRow, bit int, threshold float64, chargedVal uint64, dist int, up, down float64){
		m.InjectWeakCell, r.InjectWeakCell,
	} {
		mod(0, 10, 3, 50, 1, 1, 1, 0.5)
		mod(0, 10, 3, 80, 0, 1, 0.7, 1) // duplicate position
	}
	dm.AttachFault(m)
	dr.AttachFault(r)
	for b := 0; b < g.Banks; b++ {
		for row := 0; row < g.Rows; row++ {
			dm.FillPhysRow(b, row, 0xffffffffffffffff)
			dr.FillPhysRow(b, row, 0xffffffffffffffff)
		}
	}
	cy := dram.Cycle{Rows: []int{9}, N: 200, Period: 49, ClosedPage: true}
	if calls := hammerCycle(dm, cy); calls != cy.N {
		t.Fatalf("duplicates: %d device calls, want %d single steps", calls, cy.N)
	}
	perActivation(dr, cy)
	if m.TotalFlips() != r.TotalFlips() {
		t.Fatalf("flips: model %d, reference %d", m.TotalFlips(), r.TotalFlips())
	}
	for row := 0; row < g.Rows; row++ {
		wm, wr := dm.PhysRowWords(0, row), dr.PhysRowWords(0, row)
		for c := range wm {
			if wm[c] != wr[c] {
				t.Fatalf("row %d col %d: model %#x, reference %#x", row, c, wm[c], wr[c])
			}
		}
	}
}

// checkStoreMatchesReference requires the row-sorted store to hold, for
// every row, exactly the reference's resident cells and aggressor
// influences in the reference's (insertion) order, and the cells to be
// sorted by (bank, row).
func checkStoreMatchesReference(t *testing.T, m *Model, r *Reference, ctx string) {
	t.Helper()
	if len(m.order) != len(r.cells) || len(m.cells) != len(r.cells) {
		t.Fatalf("%s: model holds %d cells (%d in order), reference %d", ctx, len(m.cells), len(m.order), len(r.cells))
	}
	ins := make([]int, len(m.order)) // slot -> insertion index
	for i, slot := range m.order {
		ins[slot] = i
	}
	refIdx := make(map[*refCell]int, len(r.cells))
	for i, wc := range r.cells {
		refIdx[wc] = i
	}
	for s := 1; s < len(m.cells); s++ {
		a, b := getPhys(m.phys[ins[s-1]*physBytes:]), getPhys(m.phys[ins[s]*physBytes:])
		if a.bank > b.bank || a.bank == b.bank && a.physRow > b.physRow {
			t.Fatalf("%s: slots %d,%d out of (bank,row) order", ctx, s-1, s)
		}
	}
	g := m.geom
	for b := 0; b < g.Banks; b++ {
		for row := 0; row < g.Rows; row++ {
			idx := b*g.Rows + row
			var got, want []int
			for s := m.rowStart[idx]; s < m.rowStart[idx+1]; s++ {
				got = append(got, ins[s])
			}
			for _, wc := range r.byVictimRow[[2]int{b, row}] {
				want = append(want, refIdx[wc])
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: bank %d row %d residents %v, reference %v", ctx, b, row, got, want)
			}
			type inf struct {
				cell int
				w    float64
			}
			var gotI, wantI []inf
			for _, a := range m.influences(idx) {
				gotI = append(gotI, inf{ins[a.slot], a.weight})
			}
			for _, a := range r.byAggressor[[2]int{b, row}] {
				wantI = append(wantI, inf{refIdx[a.cell], a.weight})
			}
			if !slices.Equal(gotI, wantI) {
				t.Fatalf("%s: bank %d row %d influences %v, reference %v", ctx, b, row, gotI, wantI)
			}
		}
	}
	if m.MinThreshold() != r.MinThreshold() {
		t.Fatalf("%s: min threshold %v, reference %v", ctx, m.MinThreshold(), r.MinThreshold())
	}
}

// TestInjectMidRunMatchesReference injects cells into an armed model in
// the middle of a run — fresh positions, a stacked duplicate of a
// sampled cell, cells at the bank edges — and requires the store to
// keep the reference's layout and the run to stay flip-for-flip equal
// to the reference through per-activation commands, batched cycles and
// refreshes.
func TestInjectMidRunMatchesReference(t *testing.T) {
	g := dram.Geometry{Banks: 2, Rows: 96, Cols: 4}
	dm, m, dr, r := twin(t, g, denseParams(), 314)
	src := rng.New(2718)
	now := dram.Time(0)
	run := func(iters int) {
		for iter := 0; iter < iters; iter++ {
			b := src.Intn(g.Banks)
			base := 2 + src.Intn(g.Rows-6)
			cy := dram.Cycle{
				Bank: b, Rows: []int{base - 1, base + 1}, N: 1 + src.Intn(300),
				Start: now, Period: 49, ClosedPage: true,
			}
			dm.Precharge(b)
			dr.Precharge(b)
			hammerCycle(dm, cy)
			perActivation(dr, cy)
			now += dram.Time(cy.N)*cy.Period + 49
			row := src.Intn(g.Rows)
			dm.Activate(b, row, now)
			dm.Precharge(b)
			dr.Activate(b, row, now)
			dr.Precharge(b)
			if iter%5 == 0 {
				dm.RefreshPhysRow(b, base, now)
				dr.RefreshPhysRow(b, base, now)
			}
		}
	}
	inject := func(bank, row, bit int, th float64, charged uint64, dist int, up, down float64) {
		m.InjectWeakCell(bank, row, bit, th, charged, dist, up, down)
		r.InjectWeakCell(bank, row, bit, th, charged, dist, up, down)
	}
	run(150)
	flipsBefore := m.TotalFlips()
	compareState(t, dm, m, dr, r, "before injection")
	inject(0, 40, 7, 60, 1, 1, 1, 0.5)
	inject(1, 0, 3, 45, 0, 1, 0.8, 1)
	inject(1, g.Rows-1, 200, 70, 1, 2, 1, 1)
	inject(0, 41, 9, 30, 1, 2, 0.6, 1)
	if m.dup {
		t.Fatal("fresh positions marked duplicate")
	}
	// Stack a cell of the opposite charge on a sampled cell's position:
	// whichever flips first decides what the other can observe.
	wc := getPhys(m.phys[len(m.order)/2*physBytes:])
	inject(wc.bank, wc.physRow, wc.bit, wc.threshold/2, 1-wc.chargedVal, 1, 1, 1)
	if !m.dup {
		t.Fatal("stacked cell not marked duplicate")
	}
	checkStoreMatchesReference(t, m, r, "after injection")
	compareState(t, dm, m, dr, r, "after injection")
	run(150)
	if m.TotalFlips() == flipsBefore {
		t.Fatal("no flips after injection; test is vacuous")
	}
	compareState(t, dm, m, dr, r, "after the rest of the run")
}
