package softmc

// Equivalence tests for the engine's batched hammer-kernel fast path:
// a HammerProgram executed against a batch-capable model must leave
// engine, device and physics in exactly the state the instruction-by-
// instruction interpretation leaves. The oracle runs the same command
// stream with a zero WAIT appended to each loop body, which the kernel
// recognizer rejects, so its twin model sees one OnActivate per ACT.
// The model itself is pinned against the seed implementation in
// disturb's own equivalence tests.

import (
	"testing"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/rng"
)

func batchTwinParams() disturb.Params {
	p := disturb.DefaultParams()
	p.WeakCellFraction = 5e-3
	p.ThresholdMedian = 5000
	p.MinThreshold = 800
	p.Dist2Fraction = 0.2
	return p
}

func fillCheckerboard(d *dram.Device) {
	for b := 0; b < d.Geom.Banks; b++ {
		for r := 0; r < d.Geom.Rows; r++ {
			pat := uint64(0xaaaaaaaaaaaaaaaa)
			if r%2 == 1 {
				pat = 0x5555555555555555
			}
			d.FillPhysRow(b, r, pat)
		}
	}
}

func TestHammerKernelBatchedMatchesInterpreted(t *testing.T) {
	g := dram.Geometry{Banks: 2, Rows: 128, Cols: 8}
	devFast := dram.NewDevice(g)
	devSlow := dram.NewDevice(g)
	devFast.AttachFault(disturb.NewModel(g, batchTwinParams(), rng.New(3)))
	slow := disturb.NewModel(g, batchTwinParams(), rng.New(3))
	devSlow.AttachFault(slow)
	fillCheckerboard(devFast)
	fillCheckerboard(devSlow)
	engFast := NewEngine(devFast, 0)
	engSlow := NewEngine(devSlow, 0)

	// A mixed session: hammer kernels interleaved with refresh and a
	// retention-style wait, across banks, plus a second program on the
	// same engine to check state continuity after the fast path. With
	// interpreted set, every loop body carries a zero WAIT, adding one
	// executed instruction per iteration (waits) and nothing else.
	progs := func(interpreted bool) (ps []*Program, waits []int64) {
		kernel := func(p *Program, bank, rowA, rowB int, times uint64) {
			p.ACT(bank, rowA).PRE(bank).ACT(bank, rowB).PRE(bank)
			if interpreted {
				p.WAIT(0).Loop(5, times)
			} else {
				p.Loop(4, times)
			}
			waits = append(waits, int64(times)+1)
		}
		for v := 21; v < 40; v += 6 {
			p := &Program{}
			kernel(p, 0, v-1, v+1, 3999)
			ps = append(ps, p)
		}
		mixed := &Program{}
		mixed.REF().WAIT(1000)
		kernel(mixed, 1, 50, 52, 3000)
		mixed.REF()
		ps = append(ps, mixed)
		return ps, waits
	}
	var fastResults, slowResults []Result
	fastProgs, _ := progs(false)
	for _, p := range fastProgs {
		fastResults = append(fastResults, engFast.Run(p))
	}
	slowProgs, waits := progs(true)
	for _, p := range slowProgs {
		slowResults = append(slowResults, engSlow.Run(p))
	}

	if slow.TotalFlips() == 0 {
		t.Fatal("no flips induced; test is vacuous")
	}
	for i := range fastResults {
		f, s := fastResults[i], slowResults[i]
		if f.EndTime != s.EndTime || f.Cycles+waits[i] != s.Cycles || len(f.Reads) != len(s.Reads) {
			t.Fatalf("program %d: results differ: batched %+v, interpreted %+v", i, f, s)
		}
	}
	if devFast.Stats != devSlow.Stats {
		t.Fatalf("device stats differ:\nbatched     %+v\ninterpreted %+v", devFast.Stats, devSlow.Stats)
	}
	for b := 0; b < g.Banks; b++ {
		for r := 0; r < g.Rows; r++ {
			wf, ws := devFast.PhysRowWords(b, r), devSlow.PhysRowWords(b, r)
			for c := range wf {
				if wf[c] != ws[c] {
					t.Fatalf("bank %d row %d col %d: batched %#x, interpreted %#x", b, r, c, wf[c], ws[c])
				}
			}
			if devFast.LastRestore(b, r) != devSlow.LastRestore(b, r) {
				t.Fatalf("lastRestore bank %d row %d: batched %d, interpreted %d",
					b, r, devFast.LastRestore(b, r), devSlow.LastRestore(b, r))
			}
		}
	}
}

func TestHammerKernelRecognizer(t *testing.T) {
	p := HammerProgram(0, 10, 12, 500)
	n, bank, rowA, rowB, ok := hammerKernel(p.Ins, 4)
	if !ok || n != 499 || bank != 0 || rowA != 10 || rowB != 12 {
		t.Fatalf("canonical kernel not recognized: %d %d %d %d %v", n, bank, rowA, rowB, ok)
	}
	// Same row twice is not a hammer kernel.
	same := &Program{}
	same.ACT(0, 7).PRE(0).ACT(0, 7).PRE(0)
	same.Loop(4, 100)
	if _, _, _, _, ok := hammerKernel(same.Ins, 4); ok {
		t.Error("same-row loop must not be recognized")
	}
	// Cross-bank bodies are not a hammer kernel.
	cross := &Program{}
	cross.ACT(0, 7).PRE(0).ACT(1, 9).PRE(1)
	cross.Loop(4, 100)
	if _, _, _, _, ok := hammerKernel(cross.Ins, 4); ok {
		t.Error("cross-bank loop must not be recognized")
	}
	// A wider body is not the kernel.
	wide := &Program{}
	wide.ACT(0, 7).PRE(0).ACT(0, 9).PRE(0).WAIT(5)
	wide.Loop(5, 100)
	if _, _, _, _, ok := hammerKernel(wide.Ins, 5); ok {
		t.Error("5-instruction loop must not be recognized")
	}
}
