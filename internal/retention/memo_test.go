package retention

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/dram"
	"repro/internal/popmemo"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// drawFresh builds a model the way NewModel does on a memo miss,
// without consulting or filling any memo.
func drawFresh(geom dram.Geometry, p Params, src *rng.Stream) *Model {
	e, _ := drawPopulation(geom, p, src)
	return &Model{params: p, geom: geom, population: e.pop, vrt: e.vrt, src: src, tempScale: p.tempScale()}
}

func newTestMemo() *popMemo { return popmemo.New[memoKey, *memoEntry](memoBudget) }

func saveBytes(m *Model) []byte {
	var w snapshot.Writer
	m.SaveState(&w)
	return w.Bytes()
}

// campaignGeom is perfbench hammer-campaign's rig geometry: one bank
// of 128 rows of 8 words.
var campaignGeom = dram.Geometry{Banks: 1, Rows: 128, Cols: 8}

// denseVRTParams places a few hundred cells, half of them VRT, on
// campaignGeom.
func denseVRTParams() Params {
	p := retentionParams()
	p.WeakFraction = 5e-3
	return p
}

type memoCase struct {
	name string
	geom dram.Geometry
	p    Params
}

var memoCases = []memoCase{
	{"default", dram.Geometry{Banks: 2, Rows: 512, Cols: 16}, DefaultParams()},
	{"empty", dram.Geometry{Banks: 2, Rows: 512, Cols: 16}, Params{}},
	{"campaign", campaignGeom, DefaultParams()},
	{"dense", campaignGeom, denseVRTParams()},
}

// memoState returns the memo entry of a draw from a stream at st.
func memoState(pm *popMemo, c memoCase, st rng.State) *memoEntry {
	e, _ := pm.Lookup(newMemoKey(c.geom, c.p), st)
	return e
}

// checkSameModel requires two models to hold equal populations and VRT
// states, and to save identical bytes.
func checkSameModel(t *testing.T, ctx string, got, want *Model) {
	t.Helper()
	if !slices.Equal(got.cells, want.cells) || !slices.Equal(got.rowStart, want.rowStart) ||
		!slices.Equal(got.order, want.order) || !bytes.Equal(got.phys, want.phys) ||
		!slices.Equal(got.vrt, want.vrt) || got.params != want.params ||
		got.geom != want.geom || got.tempScale != want.tempScale {
		t.Fatalf("%s: model differs from a fresh draw", ctx)
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
	m := newModel(pm, c.geom, c.p, src)
	checkSameModel(t, ctx, m, want)
	if src.State() != fsrc.State() {
		t.Fatalf("%s: stream state after NewModel differs from a fresh draw", ctx)
	}
	// The model keeps drawing from src: compare the next draws on copies.
	if a, b := *src, *fsrc; a.Uint64() != b.Uint64() {
		t.Fatalf("%s: the stream's next draw differs from a fresh draw", ctx)
	}
	return m
}

// TestMemoHitMatchesMiss pins that a memo hit is indistinguishable from
// a miss: the same population, VRT states and SaveState bytes, and the
// stream left at the same state, for a default, an empty, a campaign
// and a dense population. All builds share one memo, so a key that
// dropped the params or any part of the stream state would hand one of
// them another's population: two pairs of cases share a geometry, and
// the streams differ only in their cached spare Gaussian.
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
	pm := newTestMemo()
	for _, c := range memoCases {
		for _, s := range states {
			ctx, st := c.name+"/"+s.name, s.st
			drawChecked(t, ctx+" miss", pm, c, st)
			n := pm.Len()
			drawChecked(t, ctx+" hit", pm, c, st)
			if pm.Len() != n || memoState(pm, c, st) == nil {
				t.Fatalf("%s: second build was not a memo hit", ctx)
			}
		}
	}
	if want := len(memoCases) * len(states); pm.Len() != want {
		t.Fatalf("memo holds %d populations, want %d", pm.Len(), want)
	}
}

// cloneEntry returns a deep copy of e.
func cloneEntry(e *memoEntry) memoEntry {
	return memoEntry{
		pop: population{
			cells:    slices.Clone(e.pop.cells),
			rowStart: slices.Clone(e.pop.rowStart),
			order:    slices.Clone(e.pop.order),
			phys:     bytes.Clone(e.pop.phys),
		},
		vrt: slices.Clone(e.vrt),
	}
}

// sameEntry reports whether a and b hold equal contents.
func sameEntry(a, b memoEntry) bool {
	return slices.Equal(a.pop.cells, b.pop.cells) && slices.Equal(a.pop.rowStart, b.pop.rowStart) &&
		slices.Equal(a.pop.order, b.pop.order) && bytes.Equal(a.pop.phys, b.pop.phys) &&
		slices.Equal(a.vrt, b.vrt)
}

// sharesPopulation reports whether m's physics are e's.
func sharesPopulation(m *Model, e *memoEntry) bool {
	return len(m.phys) > 0 && &m.phys[0] == &e.pop.phys[0]
}

// attached returns a device of m's geometry with m attached and every
// row holding the pattern the retention tests start from.
func attached(m *Model) *dram.Device {
	d := dram.NewDevice(m.geom)
	d.AttachFault(m)
	for b := 0; b < m.geom.Banks; b++ {
		for r := 0; r < m.geom.Rows; r++ {
			d.FillPhysRow(b, r, 0xaaaaaaaaaaaaaaaa)
		}
	}
	return d
}

// TestMemoSurvivesModelMutation drives a missed and a hit model, both
// sharing the memo's population, through refresh storms (decays and
// VRT toggles), an in-place LoadState and a refused LoadState of other
// physics. After every step the memo entry must be byte-identical to
// what it held before, and a later build of the same spec must still
// equal a fresh draw. The same holds for models built and stormed from eight
// goroutines at once; run under -race.
func TestMemoSurvivesModelMutation(t *testing.T) {
	c := memoCase{"dense", campaignGeom, denseVRTParams()}
	pm := newTestMemo()
	other := drawFresh(c.geom, c.p, rng.New(99))
	refreshStorms(attached(other), 0, 4)
	otherBytes := saveBytes(other)
	st := rng.New(3).State()
	for _, ctx := range []string{"miss", "hit"} {
		m := drawChecked(t, ctx, pm, c, st)
		e := memoState(pm, c, st)
		if e == nil || !sharesPopulation(m, e) {
			t.Fatalf("%s: model does not share a memo entry", ctx)
		}
		was := cloneEntry(e)
		check := func(step string) {
			t.Helper()
			if memoState(pm, c, st) != e || !sameEntry(*e, was) {
				t.Fatalf("%s: %s changed the memo's population", ctx, step)
			}
		}
		d := attached(m)
		now := refreshStorms(d, 0, 6)
		if m.Decays() == 0 || slices.Equal(m.vrt, e.vrt) {
			t.Fatalf("%s: storms decayed nothing or toggled no VRT cell; test is vacuous", ctx)
		}
		check("refresh storms")
		if err := m.LoadState(snapshot.NewReader(saveBytes(m))); err != nil || !sharesPopulation(m, e) {
			t.Fatalf("%s: in-place LoadState: %v (shared %v)", ctx, err, sharesPopulation(m, e))
		}
		check("an in-place LoadState")
		before := saveBytes(m)
		if err := m.LoadState(snapshot.NewReader(otherBytes)); !errors.Is(err, snapshot.ErrMismatch) || !sharesPopulation(m, e) {
			t.Fatalf("%s: LoadState of other physics: want ErrMismatch, got %v (shared %v)", ctx, err, sharesPopulation(m, e))
		}
		if !bytes.Equal(saveBytes(m), before) {
			t.Fatalf("%s: a refused LoadState changed the model", ctx)
		}
		check("a LoadState of other physics")
		refreshStorms(d, now, 4)
		check("storms after a refused LoadState")
	}
	drawChecked(t, "after mutation", pm, c, st)

	seeds := []uint64{11, 12, 13, 14}
	want := make([][]byte, len(seeds))
	for i, s := range seeds {
		want[i] = saveBytes(drawFresh(c.geom, c.p, rng.New(s)))
	}
	var wg sync.WaitGroup
	errs := make([]string, 8)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (g + i) % len(seeds)
				m := newModel(pm, c.geom, c.p, rng.New(seeds[k]))
				if !bytes.Equal(saveBytes(m), want[k]) {
					errs[g] = "population differs from a fresh draw"
					return
				}
				refreshStorms(attached(m), 0, 2)
			}
		}()
	}
	wg.Wait()
	for g, e := range errs {
		if e != "" {
			t.Fatalf("goroutine %d: %s", g, e)
		}
	}
	for i, s := range seeds {
		if !bytes.Equal(saveBytes(newModel(pm, c.geom, c.p, rng.New(s))), want[i]) {
			t.Fatalf("seed %d: a build after concurrent mutation differs from a fresh draw", s)
		}
	}
}

// campaignCheckpoint runs a dense campaign-shaped model from seed
// through refresh storms and returns it, its device's checkpoint, its
// own checkpoint and the simulated time reached.
func campaignCheckpoint(pm *popMemo, seed uint64) (m *Model, dev, model []byte, now dram.Time) {
	m = newModel(pm, campaignGeom, denseVRTParams(), rng.New(seed))
	d := attached(m)
	now = refreshStorms(d, 0, 5)
	var w snapshot.Writer
	d.SaveState(&w)
	return m, w.Bytes(), saveBytes(m), now
}

// TestLoadStateOverlaysInstalledPhysics restores one mid-campaign
// checkpoint, with decays and toggled VRT states, onto a memo hit: the
// installed physics match, so only the counter, the stream and VRT
// states are written and the population stays shared. The restored
// model must save the checkpoint's bytes and then run the rest of the
// campaign exactly like the uninterrupted model. A model of other
// physics must refuse the checkpoint as a mismatch and keep its bytes.
func TestLoadStateOverlaysInstalledPhysics(t *testing.T) {
	for _, seed := range []uint64{1, 5} {
		pm := newTestMemo()
		ref, devBytes, ckpt, mid := campaignCheckpoint(pm, seed)
		dRef := dram.NewDevice(campaignGeom)
		if err := dRef.LoadState(snapshot.NewReader(devBytes)); err != nil {
			t.Fatal(err)
		}
		dRef.AttachFault(ref)
		refreshStorms(dRef, mid, 5)
		e := memoState(pm, memoCase{"dense", campaignGeom, denseVRTParams()}, rng.New(seed).State())
		was := cloneEntry(e)

		m := newModel(pm, campaignGeom, denseVRTParams(), rng.New(seed))
		d := dram.NewDevice(campaignGeom)
		if err := d.LoadState(snapshot.NewReader(devBytes)); err != nil {
			t.Fatal(err)
		}
		d.AttachFault(m)
		if err := m.LoadState(snapshot.NewReader(ckpt)); err != nil {
			t.Fatalf("seed %d: LoadState: %v", seed, err)
		}
		if !sharesPopulation(m, e) || !bytes.Equal(saveBytes(m), ckpt) {
			t.Fatalf("seed %d: the restore did not overlay the shared population with the checkpoint's state", seed)
		}
		refreshStorms(d, mid, 5)
		if m.Decays() != ref.Decays() || cellHash(d) != cellHash(dRef) ||
			!bytes.Equal(saveBytes(m), saveBytes(ref)) {
			t.Fatalf("seed %d: the restored run diverges from the uninterrupted one", seed)
		}

		other := newModel(pm, campaignGeom, denseVRTParams(), rng.New(seed+100))
		before := saveBytes(other)
		if err := other.LoadState(snapshot.NewReader(ckpt)); !errors.Is(err, snapshot.ErrMismatch) {
			t.Fatalf("seed %d: other physics: want ErrMismatch, got %v", seed, err)
		}
		if !bytes.Equal(saveBytes(other), before) || !sameEntry(*e, was) {
			t.Fatalf("seed %d: a refused restore changed the model or the memo's population", seed)
		}
	}
}

// TestLoadStateFailureLeavesStateUnchanged feeds broken copies of a
// mid-campaign checkpoint to a model holding the checkpoint's physics
// and to one holding other physics. Truncations and a VRT state flag
// that is not a boolean must fail as corrupt; a patched physics field
// (a flag, bank, row or charge) as a mismatch, since it names other
// cells. Every load must leave the model saving the bytes it saved
// before, and the memo's population untouched.
func TestLoadStateFailureLeavesStateUnchanged(t *testing.T) {
	pm := newTestMemo()
	_, _, ckpt, _ := campaignCheckpoint(pm, 1)
	c := memoCase{"dense", campaignGeom, denseVRTParams()}
	e := memoState(pm, c, rng.New(1).State())
	was := cloneEntry(e)
	n := len(e.pop.order)
	cells := len(ckpt) - n*encodedCellBytes
	last := len(ckpt) - encodedCellBytes
	patch := func(at int, b ...byte) []byte {
		bad := bytes.Clone(ckpt)
		copy(bad[at:], b)
		return bad
	}
	cases := []struct {
		name    string
		payload []byte
		want    error
	}{
		{"truncated cells", ckpt[:len(ckpt)-3], snapshot.ErrCorrupt},
		{"truncated stream", ckpt[:cells-20], snapshot.ErrCorrupt},
		{"last VRT state flag", patch(last+physBytes, 2), snapshot.ErrCorrupt},
		{"first DPD flag", patch(cells+40, 2), snapshot.ErrMismatch},
		{"last bank", patch(last+7, 1), snapshot.ErrMismatch},
		{"last row", patch(last+8, 0x80), snapshot.ErrMismatch},
		{"last charge", patch(last+39, 2), snapshot.ErrMismatch},
	}
	for _, seed := range []uint64{1, 2} {
		m := newModel(pm, c.geom, c.p, rng.New(seed))
		refreshStorms(attached(m), 0, 3)
		before := saveBytes(m)
		for _, tc := range cases {
			err := m.LoadState(snapshot.NewReader(tc.payload))
			if !errors.Is(err, tc.want) {
				t.Fatalf("seed %d %s: want %v, got %v", seed, tc.name, tc.want, err)
			}
			if !bytes.Equal(saveBytes(m), before) {
				t.Fatalf("seed %d %s: failed load changed the model", seed, tc.name)
			}
			if !sameEntry(*e, was) {
				t.Fatalf("seed %d %s: failed load changed the memo's population", seed, tc.name)
			}
		}
	}
}

// TestRestoreAllocs pins what a rebuilt-then-restored retention model
// allocates: a memo hit only the model and its VRT states (only the
// model for an empty population), and a LoadState of the installed
// physics nothing.
func TestRestoreAllocs(t *testing.T) {
	pm := newTestMemo()
	for _, c := range []memoCase{
		{"dense", campaignGeom, denseVRTParams()},
		{"empty", campaignGeom, Params{}},
	} {
		st := rng.New(1).State()
		src := rng.FromState(st)
		m := newModel(pm, c.geom, c.p, src)
		want := 2.0
		if m.WeakCellCount() == 0 {
			want = 1
		}
		if got := testing.AllocsPerRun(50, func() {
			src.SetState(st)
			newModel(pm, c.geom, c.p, src)
		}); got != want {
			t.Errorf("%s: a memo hit allocates %v times, want %v", c.name, got, want)
		}
		refreshStorms(attached(m), 0, 3)
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
