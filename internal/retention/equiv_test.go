package retention

import (
	"slices"
	"testing"

	"repro/internal/dram"
	"repro/internal/rng"
)

// vrtParams exercises every stochastic path of the model: DPD, VRT
// with asymmetric dwell, and a temperature off the 45 C anchor.
func vrtParams() Params {
	return Params{
		WeakFraction:    0.02,
		MedianSec:       0.8,
		Sigma:           0.6,
		MinSec:          0.1,
		DPDFraction:     0.4,
		DPDReduction:    0.4,
		VRTFraction:     0.5,
		VRTRatio:        20,
		VRTDwellSec:     3,
		VRTLongDwellSec: 9,
		TemperatureC:    55,
	}
}

// storm drives a mixed activation/refresh workload: per-row refreshes,
// whole-bank batched sweeps, and activations, at irregular intervals
// that straddle the retention distribution.
func storm(d *dram.Device, batched bool) {
	g := d.Geom
	now := dram.Time(0)
	intervals := []dram.Time{
		200 * dram.Millisecond, 2 * dram.Second, 700 * dram.Millisecond,
		5 * dram.Second, 64 * dram.Millisecond, 9 * dram.Second,
	}
	for step, iv := range intervals {
		now += iv
		switch step % 3 {
		case 0: // per-row refresh sweep
			for b := 0; b < g.Banks; b++ {
				for r := 0; r < g.Rows; r++ {
					d.RefreshPhysRow(b, r, now)
				}
			}
		case 1: // whole-bank sweep (batched on the flat model)
			for b := 0; b < g.Banks; b++ {
				if batched {
					d.RefreshBankAll(b, now)
				} else {
					for r := 0; r < g.Rows; r++ {
						d.RefreshPhysRow(b, r, now)
					}
				}
			}
		default: // activations restore charge too
			for b := 0; b < g.Banks; b++ {
				for r := 0; r < g.Rows; r++ {
					d.Activate(b, r, now)
					d.Precharge(b)
				}
			}
		}
	}
}

func fingerprint(t *testing.T, d *dram.Device) []uint64 {
	t.Helper()
	var out []uint64
	for b := 0; b < d.Geom.Banks; b++ {
		for r := 0; r < d.Geom.Rows; r++ {
			out = append(out, d.PhysRowWords(b, r)...)
		}
	}
	return out
}

// TestModelMatchesReference proves the flat-slab index and the batched
// bank-refresh sweep bit-identical to the seed's map-indexed per-row
// path: same population, same decays, same cell bits, same VRT draw
// consumption.
func TestModelMatchesReference(t *testing.T) {
	g := dram.Geometry{Banks: 2, Rows: 128, Cols: 8}
	p := vrtParams()
	seed := uint64(7)

	dFlat := dram.NewDevice(g)
	flat := NewModel(g, p, rng.New(seed))
	dFlat.AttachFault(flat)

	dRef := dram.NewDevice(g)
	ref := NewReference(g, p, rng.New(seed))
	dRef.AttachFault(ref)

	fc, rc := flat.Cells(), ref.Cells()
	if len(fc) != len(rc) {
		t.Fatalf("populations differ: %d vs %d", len(fc), len(rc))
	}
	for i := range fc {
		if fc[i] != rc[i] {
			t.Fatalf("cell %d differs: %+v vs %+v", i, fc[i], rc[i])
		}
	}
	for _, c := range fc {
		dFlat.SetPhysBit(c.Bank, c.PhysRow, c.Bit, c.ChargedVal)
		dRef.SetPhysBit(c.Bank, c.PhysRow, c.Bit, c.ChargedVal)
	}
	storm(dFlat, true)
	storm(dRef, false)
	if flat.Decays() != ref.Decays() {
		t.Fatalf("decays: flat %d vs reference %d", flat.Decays(), ref.Decays())
	}
	if flat.Decays() == 0 {
		t.Fatal("storm decayed nothing; the equivalence check is vacuous")
	}
	ff, rf := fingerprint(t, dFlat), fingerprint(t, dRef)
	for i := range ff {
		if ff[i] != rf[i] {
			t.Fatalf("cell contents diverge at word %d", i)
		}
	}
}

// TestRetentionModelDeterministic mirrors PR 3's TRR determinism test
// for the retention layer: two fresh models at the same seed must
// produce identical populations, decay counts and cell contents under
// the identical workload, run to run.
func TestRetentionModelDeterministic(t *testing.T) {
	g := dram.Geometry{Banks: 2, Rows: 128, Cols: 8}
	p := vrtParams()
	run := func() (int64, []uint64) {
		d := dram.NewDevice(g)
		m := NewModel(g, p, rng.New(99))
		d.AttachFault(m)
		for _, c := range m.Cells() {
			d.SetPhysBit(c.Bank, c.PhysRow, c.Bit, c.ChargedVal)
		}
		storm(d, true)
		return m.Decays(), fingerprint(t, d)
	}
	d1, f1 := run()
	d2, f2 := run()
	if d1 != d2 {
		t.Fatalf("decay counts differ run to run: %d vs %d", d1, d2)
	}
	if d1 == 0 {
		t.Fatal("no decays; determinism check is vacuous")
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("cell contents differ run to run at word %d", i)
		}
	}
}

// TestRefreshBankAllEquivalence pins the device-level batched sweep
// against the per-row loop on an independent pair of devices, with
// the disturbance-free retention model attached.
func TestRefreshBankAllEquivalence(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 4}
	p := denseParams()
	build := func() (*dram.Device, *Model) {
		d := dram.NewDevice(g)
		m := NewModel(g, p, rng.New(3))
		d.AttachFault(m)
		for _, c := range m.Cells() {
			d.SetPhysBit(c.Bank, c.PhysRow, c.Bit, c.ChargedVal)
		}
		return d, m
	}
	dA, mA := build()
	dB, mB := build()
	now := 30 * dram.Second
	dA.RefreshBankAll(0, now)
	for r := 0; r < g.Rows; r++ {
		dB.RefreshPhysRow(0, r, now)
	}
	if mA.Decays() != mB.Decays() || mA.Decays() == 0 {
		t.Fatalf("batched %d decays vs per-row %d", mA.Decays(), mB.Decays())
	}
	if dA.Stats.RowRefreshes != dB.Stats.RowRefreshes {
		t.Fatalf("RowRefreshes: %d vs %d", dA.Stats.RowRefreshes, dB.Stats.RowRefreshes)
	}
	if dA.Stats.OpEnergyPJ != dB.Stats.OpEnergyPJ {
		t.Fatalf("energy: %v vs %v", dA.Stats.OpEnergyPJ, dB.Stats.OpEnergyPJ)
	}
	fa, fb := fingerprint(t, dA), fingerprint(t, dB)
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("cell contents diverge at word %d", i)
		}
	}
}

// TestHammerCycleMatchesReference drives hammer cycles over rows
// holding weak cells through Device.HammerCycle on the flat model and
// per activation on the reference. Periods up to 10 ms make rounds
// outlast the shortest retention times and bursts span VRT toggles, so
// horizons end on decays and on VRT draws as well as running long. The
// 126-row case is the width of rowhammer -mode many.
func TestHammerCycleMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     dram.Geometry
		iters int
		maxN  int
		// rows picks a cycle's rows.
		rows func(g dram.Geometry, src *rng.Stream) []int
	}{
		{"2-5 rows", dram.Geometry{Banks: 2, Rows: 64, Cols: 4}, 200, 300,
			func(g dram.Geometry, src *rng.Stream) []int {
				// The bound is redrawn on every check.
				var rows []int
				for len(rows) < 2+src.Intn(4) {
					if r := src.Intn(g.Rows); !slices.Contains(rows, r) {
						rows = append(rows, r)
					}
				}
				return rows
			}},
		{"126 rows", dram.Geometry{Banks: 1, Rows: 320, Cols: 4}, 30, 1500,
			func(g dram.Geometry, src *rng.Stream) []int {
				var rows []int
				for len(rows) < 126 {
					if r := src.Intn(g.Rows); !slices.Contains(rows, r) {
						rows = append(rows, r)
					}
				}
				return rows
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			p := vrtParams()
			p.VRTDwellSec, p.VRTLongDwellSec = 0.2, 0.5 // toggles inside bursts
			dFlat := dram.NewDevice(g)
			flat := NewModel(g, p, rng.New(11))
			dFlat.AttachFault(flat)
			dRef := dram.NewDevice(g)
			ref := NewReference(g, p, rng.New(11))
			dRef.AttachFault(ref)
			for _, c := range flat.Cells() {
				dFlat.SetPhysBit(c.Bank, c.PhysRow, c.Bit, c.ChargedVal)
				dRef.SetPhysBit(c.Bank, c.PhysRow, c.Bit, c.ChargedVal)
			}
			periods := []dram.Time{49, dram.Microsecond, dram.Millisecond, 10 * dram.Millisecond}
			src := rng.New(5)
			now := dram.Time(0)
			batched, single, resident, coupled := 0, 0, 0, 0
			for iter := 0; iter < tc.iters; iter++ {
				b := src.Intn(g.Banks)
				rows := tc.rows(g, src)
				for _, r := range rows {
					resident += flat.cellsIn(b*g.Rows + r)
					for _, nr := range []int{r - 1, r + 1} {
						if nr >= 0 && nr < g.Rows && !slices.Contains(rows, nr) {
							coupled += flat.cellsIn(b*g.Rows + nr)
						}
					}
				}
				cy := dram.Cycle{
					Bank: b, Rows: rows, Pos: src.Intn(len(rows)), N: 1 + src.Intn(tc.maxN),
					Start: now, Period: periods[src.Intn(len(periods))], ClosedPage: iter%2 == 1,
				}
				if cy.ClosedPage {
					dFlat.Precharge(b)
					dRef.Precharge(b)
				}
				for done := 0; done < cy.N; {
					step := cy
					step.Pos = (cy.Pos + done) % len(rows)
					step.N = cy.N - done
					step.Start = cy.Start + dram.Time(done)*cy.Period
					n := dFlat.HammerCycle(step)
					if n > 1 {
						batched++
					} else {
						single++
					}
					done += n
				}
				for j := 0; j < cy.N; j++ {
					if !cy.ClosedPage {
						dRef.Precharge(b)
					}
					dRef.Activate(b, rows[(cy.Pos+j)%len(rows)], cy.Start+dram.Time(j)*cy.Period)
					if cy.ClosedPage {
						dRef.Precharge(b)
					}
				}
				now += dram.Time(cy.N)*cy.Period + dram.Time(src.Intn(2000))*dram.Millisecond
			}
			// Resident cells sit in hammered rows; coupled cells sit
			// beside them, where the hammered rows' data sets their
			// data-pattern-dependent retention.
			if flat.Decays() == 0 || batched == 0 || single == 0 || resident == 0 || coupled == 0 {
				t.Fatalf("decays %d, batched chunks %d, single steps %d, resident cells %d, coupled cells %d; test is vacuous",
					flat.Decays(), batched, single, resident, coupled)
			}
			// A closing storm exposes any drift in VRT draw consumption.
			for b := 0; b < g.Banks; b++ {
				dFlat.Precharge(b)
				dRef.Precharge(b)
			}
			storm(dFlat, true)
			storm(dRef, false)
			if flat.Decays() != ref.Decays() {
				t.Fatalf("decays: flat %d vs reference %d", flat.Decays(), ref.Decays())
			}
			if dFlat.Stats != dRef.Stats {
				t.Fatalf("stats: flat %+v vs reference %+v", dFlat.Stats, dRef.Stats)
			}
			ff, rf := fingerprint(t, dFlat), fingerprint(t, dRef)
			for i := range ff {
				if ff[i] != rf[i] {
					t.Fatalf("cell contents diverge at word %d", i)
				}
			}
			for b := 0; b < g.Banks; b++ {
				for r := 0; r < g.Rows; r++ {
					if dFlat.LastRestore(b, r) != dRef.LastRestore(b, r) {
						t.Fatalf("bank %d row %d: lastRestore flat %d vs reference %d", b, r, dFlat.LastRestore(b, r), dRef.LastRestore(b, r))
					}
				}
			}
		})
	}
}
