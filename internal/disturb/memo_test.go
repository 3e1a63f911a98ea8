package disturb

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"repro/internal/dram"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// campaignGeom and campaignParams are perfbench hammer-campaign's rig
// shape: one bank of 128 rows of 8 words, 2e-3 weak cells, thresholds
// divided by 100.
var campaignGeom = dram.Geometry{Banks: 1, Rows: 128, Cols: 8}

func campaignParams() Params {
	p := DefaultParams()
	p.WeakCellFraction = 2e-3
	p.ThresholdMedian /= 100
	p.MinThreshold /= 100
	return p
}

type memoCase struct {
	name string
	geom dram.Geometry
	p    Params
}

var memoCases = []memoCase{
	{"default", dram.Geometry{Banks: 2, Rows: 512, Cols: 16}, DefaultParams()},
	{"invulnerable", dram.Geometry{Banks: 2, Rows: 512, Cols: 16}, Params{}},
	{"campaign", campaignGeom, campaignParams()},
}

// checkSameModel requires two models to hold identical stores and save
// identical bytes.
func checkSameModel(t *testing.T, ctx string, got, want *Model) {
	t.Helper()
	if !samePopulation(got.population, want.population) || !slices.Equal(got.hammer, want.hammer) {
		t.Fatalf("%s: store differs from a fresh draw", ctx)
	}
	if !bytes.Equal(saveBytes(got), saveBytes(want)) {
		t.Fatalf("%s: SaveState bytes differ from a fresh draw", ctx)
	}
}

// drawChecked builds a model through pm from a stream at st and
// requires it, and the stream it leaves behind, to equal a fresh
// draw's.
func drawChecked(t *testing.T, ctx string, pm *popMemo, c memoCase, st rng.State) *Model {
	t.Helper()
	fsrc, src := rng.FromState(st), rng.FromState(st)
	want := drawFresh(c.geom, c.p, fsrc)
	m := pm.newModel(c.geom, c.p, src)
	checkSameModel(t, ctx, m, want)
	if src.State() != fsrc.State() {
		t.Fatalf("%s: stream state after NewModel differs from a fresh draw", ctx)
	}
	if src.Uint64() != fsrc.Uint64() {
		t.Fatalf("%s: the stream's next draw differs from a fresh draw", ctx)
	}
	return m
}

// TestMemoHitMatchesMiss pins that a memo hit is indistinguishable from
// a miss: the same store and SaveState bytes, and the stream left at
// the same state, for a default, an empty and a campaign population.
// All builds share one memo, so a key that dropped the params or any
// part of the stream state would hand one of them another's population:
// the default and empty cases share a geometry, and the streams differ
// only in their cached spare Gaussian.
func TestMemoHitMatchesMiss(t *testing.T) {
	withSpare := rng.New(7)
	withSpare.Normal(0, 1)
	noSpare := withSpare.State()
	noSpare.HaveSpare, noSpare.Spare = false, 0
	states := []struct {
		name string
		st   rng.State
	}{
		{"fresh", rng.New(7).State()},
		{"spare", withSpare.State()},
		{"no spare", noSpare},
	}
	pm := newPopMemo(memoBudget)
	for _, c := range memoCases {
		for _, s := range states {
			ctx, st := c.name+"/"+s.name, s.st
			drawChecked(t, ctx+" miss", pm, c, st)
			n := pm.Len()
			drawChecked(t, ctx+" hit", pm, c, st)
			if pm.Len() != n || pm.lookup(c.geom, c.p, st) == nil {
				t.Fatalf("%s: second build was not a memo hit", ctx)
			}
		}
	}
	if want := len(memoCases) * len(states); pm.Len() != want {
		t.Fatalf("memo holds %d populations, want %d", pm.Len(), want)
	}
}

// clonePopulation returns a deep copy of p.
func clonePopulation(p population) population {
	return population{
		cells:        slices.Clone(p.cells),
		order:        slices.Clone(p.order),
		rowStart:     slices.Clone(p.rowStart),
		aggStart:     slices.Clone(p.aggStart),
		aggs:         slices.Clone(p.aggs),
		aggOrder:     slices.Clone(p.aggOrder),
		phys:         bytes.Clone(p.phys),
		minThreshold: p.minThreshold,
	}
}

// samePopulation reports whether a and b hold equal contents.
func samePopulation(a, b population) bool {
	return slices.Equal(a.cells, b.cells) && slices.Equal(a.order, b.order) &&
		slices.Equal(a.rowStart, b.rowStart) && slices.Equal(a.aggStart, b.aggStart) &&
		slices.Equal(a.aggs, b.aggs) && slices.Equal(a.aggOrder, b.aggOrder) &&
		bytes.Equal(a.phys, b.phys) && a.minThreshold == b.minThreshold
}

// TestMemoSurvivesModelMutation drives a missed and a hit model, both
// sharing the memo's population, through flips, an in-place LoadState,
// InjectWeakCell and a LoadState of other physics. After every step the
// memo entry must be byte-identical to what it held before, and a later
// build of the same spec must still equal a fresh draw.
func TestMemoSurvivesModelMutation(t *testing.T) {
	c := memoCase{"aggressive", dram.Geometry{Banks: 1, Rows: 256, Cols: 8}, aggressiveParams()}
	pm := newPopMemo(memoBudget)
	var other snapshot.Writer
	drawFresh(c.geom, c.p, rng.New(99)).SaveState(&other)
	st := rng.New(3).State()
	for _, ctx := range []string{"miss", "hit"} {
		m := drawChecked(t, ctx, pm, c, st)
		e := pm.lookup(c.geom, c.p, st)
		if e == nil || !m.shared {
			t.Fatalf("%s: model does not share a memo entry", ctx)
		}
		pop := clonePopulation(*e)
		check := func(step string) {
			t.Helper()
			if pm.lookup(c.geom, c.p, st) != e || !samePopulation(*e, pop) {
				t.Fatalf("%s: %s changed the memo's population", ctx, step)
			}
		}
		d := dram.NewDevice(c.geom)
		d.AttachFault(m)
		for r := 0; r < c.geom.Rows; r++ {
			d.FillPhysRow(0, r, 0xffffffffffffffff)
		}
		hammer(d, []int{99, 101}, 5000)
		if m.TotalFlips() == 0 {
			t.Fatalf("%s: hammering produced no flips; test is vacuous", ctx)
		}
		check("hammering")
		if err := m.LoadState(snapshot.NewReader(saveBytes(m))); err != nil || !m.shared {
			t.Fatalf("%s: in-place LoadState: %v (shared %v)", ctx, err, m.shared)
		}
		check("an in-place LoadState")
		m.InjectWeakCell(0, 100, 3, 10, 1, 1, 1, 1)
		check("InjectWeakCell")
		if err := m.LoadState(snapshot.NewReader(other.Bytes())); err != nil {
			t.Fatalf("%s: LoadState: %v", ctx, err)
		}
		check("a LoadState of other physics")
		m.InjectWeakCell(0, 10, 5, 10, 0, 2, 0.5, 1)
		check("a second InjectWeakCell")
	}
	// A shared model whose first change is a LoadState of other
	// physics, with no injection before it.
	m := drawChecked(t, "hit", pm, c, st)
	pop := clonePopulation(*pm.lookup(c.geom, c.p, st))
	if err := m.LoadState(snapshot.NewReader(other.Bytes())); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if m.shared || !samePopulation(*pm.lookup(c.geom, c.p, st), pop) {
		t.Fatal("a LoadState of other physics wrote into the memo's population")
	}
	drawChecked(t, "after mutation", pm, c, rng.New(3).State())
}

// TestMemoConcurrent builds models from eight goroutines at once, over
// keys that start as misses and turn into hits; run under -race.
func TestMemoConcurrent(t *testing.T) {
	c := memoCase{"campaign", campaignGeom, campaignParams()}
	seeds := []uint64{11, 12, 13, 14}
	want := make([][]byte, len(seeds))
	for i, s := range seeds {
		want[i] = saveBytes(drawFresh(c.geom, c.p, rng.New(s)))
	}
	pm := newPopMemo(memoBudget)
	var wg sync.WaitGroup
	errs := make([]string, 8)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % len(seeds)
				m := pm.newModel(c.geom, c.p, rng.New(seeds[k]))
				if !bytes.Equal(saveBytes(m), want[k]) {
					errs[g] = "population differs from a fresh draw"
					return
				}
				m.InjectWeakCell(0, 5, 1, 10, 1, 1, 1, 1)
			}
		}()
	}
	wg.Wait()
	for g, e := range errs {
		if e != "" {
			t.Fatalf("goroutine %d: %s", g, e)
		}
	}
	if pm.Len() != len(seeds) {
		t.Fatalf("memo holds %d populations, want %d", pm.Len(), len(seeds))
	}
}

// TestMemoEvictionBound pins the budget: inserting past it evicts the
// oldest populations first, and a population larger than the whole
// budget is drawn fresh every time, correctly, and never cached. The
// memo's own accounts are pinned in package popmemo.
func TestMemoEvictionBound(t *testing.T) {
	c := memoCase{"campaign", campaignGeom, campaignParams()}
	size := drawFresh(c.geom, c.p, rng.New(1)).size()
	if size == 0 {
		t.Fatal("probe population has no size")
	}
	// Room for two populations of about this size, not three.
	pm := newPopMemo(2*size + size/2)
	seeds := []uint64{1, 2, 3, 4, 5}
	for i, s := range seeds {
		drawChecked(t, "fill", pm, c, rng.New(s).State())
		if pm.lookup(c.geom, c.p, rng.New(s).State()) == nil {
			t.Fatalf("seed %d: newest population is not memoised", s)
		}
		if i >= 2 && pm.Len() > 2 {
			t.Fatalf("seed %d: memo holds %d populations within a budget for 2", s, pm.Len())
		}
	}
	if pm.lookup(c.geom, c.p, rng.New(1).State()) != nil {
		t.Fatal("oldest population survived eviction")
	}
	// Hits on a full memo still match.
	drawChecked(t, "hit on a full memo", pm, c, rng.New(5).State())

	tiny := newPopMemo(size / 2)
	for i := 0; i < 3; i++ {
		drawChecked(t, "over budget", tiny, c, rng.New(1).State())
		if tiny.Len() != 0 {
			t.Fatalf("memo cached a population over its budget: %d entries", tiny.Len())
		}
	}
}

// TestPlantedMatchesEmptyDraw pins NewPlanted to the build it replaces,
// NewModel with zero Params: after the same injections (a distance-2
// cell first, an edge-row cell and an anti-cell in every bank, a
// duplicate between bursts) and the same hammer bursts, both save
// identical bytes, over several geometries and stream seeds. NewPlanted
// itself leaves the process-wide memo's entry count unchanged.
func TestPlantedMatchesEmptyDraw(t *testing.T) {
	memoEntries := populations.Len
	// run plants the cells of geometry g into m, hammers them on a
	// fresh device and returns m's saved bytes.
	run := func(g dram.Geometry, m *Model) []byte {
		d := dram.NewDevice(g)
		d.AttachFault(m)
		plant := func(bank, row, bit int, threshold float64, charged uint64, dist int, up, down float64) {
			m.InjectWeakCell(bank, row, bit, threshold, charged, dist, up, down)
			d.SetPhysBit(bank, row, bit, charged)
		}
		last := g.Rows - 1
		for b := 0; b < g.Banks; b++ {
			plant(b, 10, 5, 300, 1, 2, 1, 0.5)
			plant(b, 0, 1, 200, 1, 1, 1, 1)
			plant(b, last, 3, 200, 0, 1, 0.7, 1)
			plant(b, 20, 7, 150, 1, 1, 1, 0.4)
		}
		now := dram.Time(0)
		burst := func() {
			for b := 0; b < g.Banks; b++ {
				cy := dram.Cycle{Bank: b, Rows: []int{9, 11, 12, 8, 19, 21, 1, last - 1},
					N: 4000, Start: now, Period: 49, ClosedPage: true}
				hammerCycle(d, cy)
				now += dram.Time(cy.N) * cy.Period
			}
		}
		burst()
		plant(0, 20, 7, 250, 0, 1, 1, 1) // duplicate position
		burst()
		if m.TotalFlips() == 0 {
			t.Fatalf("%+v: the bursts flipped nothing; the check is vacuous", g)
		}
		return saveBytes(m)
	}
	for _, g := range []dram.Geometry{
		{Banks: 1, Rows: 64, Cols: 2},
		{Banks: 2, Rows: 512, Cols: 16},
		{Banks: 4, Rows: 128, Cols: 8},
	} {
		n := memoEntries()
		planted := run(g, NewPlanted(g))
		if got := memoEntries(); got != n {
			t.Fatalf("%+v: NewPlanted changed the memo from %d to %d entries", g, n, got)
		}
		for _, seed := range []uint64{1, 5, 0x80E0} {
			if drawn := run(g, NewModel(g, Params{}, rng.New(seed))); !bytes.Equal(planted, drawn) {
				t.Fatalf("%+v seed %d: NewPlanted saves other bytes than an empty draw", g, seed)
			}
		}
	}
}

// TestRestoreAllocs pins what a rebuilt-then-restored disturb model
// allocates: a memo hit only the model and its hammer states (only the
// model for an empty population), and a LoadState of the installed
// physics nothing.
func TestRestoreAllocs(t *testing.T) {
	pm := newPopMemo(memoBudget)
	for _, c := range []memoCase{
		{"campaign", campaignGeom, campaignParams()},
		{"empty", campaignGeom, Params{}},
	} {
		st := rng.New(1).State()
		src := rng.FromState(st)
		m := pm.newModel(c.geom, c.p, src)
		want := 2.0
		if m.WeakCellCount() == 0 {
			want = 1
		}
		if got := testing.AllocsPerRun(50, func() {
			src.SetState(st)
			pm.newModel(c.geom, c.p, src)
		}); got != want {
			t.Errorf("%s: a memo hit allocates %v times, want %v", c.name, got, want)
		}
		d := dram.NewDevice(c.geom)
		d.AttachFault(m)
		for r := 1; r+1 < c.geom.Rows; r += 9 {
			hammerCycle(d, dram.Cycle{Rows: []int{r - 1, r + 1}, N: 20_000, Period: 49, ClosedPage: true})
		}
		if m.WeakCellCount() > 0 && m.TotalFlips() == 0 {
			t.Fatalf("%s: hammering flipped nothing; the restore check is vacuous", c.name)
		}
		ckpt := saveBytes(m)
		if got := testing.AllocsPerRun(50, func() {
			if err := m.LoadState(snapshot.NewReader(ckpt)); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: an in-place LoadState allocates %v times, want 0", c.name, got)
		}
	}
}
