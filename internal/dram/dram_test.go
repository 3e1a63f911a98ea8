package dram

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func smallGeom() Geometry { return Geometry{Banks: 2, Rows: 64, Cols: 4} }

func TestGeometry(t *testing.T) {
	g := smallGeom()
	if g.BitsPerRow() != 256 {
		t.Errorf("BitsPerRow = %d", g.BitsPerRow())
	}
	if g.TotalCells() != 2*64*256 {
		t.Errorf("TotalCells = %d", g.TotalCells())
	}
	if g.Validate() != nil {
		t.Error("valid geometry rejected")
	}
	if (Geometry{}).Validate() == nil {
		t.Error("zero geometry accepted")
	}
}

func TestActivateReadWrite(t *testing.T) {
	d := NewDevice(smallGeom())
	d.Activate(0, 5, 100)
	d.Write(0, 2, 0xdeadbeef)
	if got := d.Read(0, 2); got != 0xdeadbeef {
		t.Fatalf("read back %x", got)
	}
	d.Precharge(0)
	d.Activate(0, 5, 200)
	if got := d.Read(0, 2); got != 0xdeadbeef {
		t.Fatalf("data lost across precharge: %x", got)
	}
	if d.Stats.Activates != 2 || d.Stats.Reads != 2 || d.Stats.Writes != 1 {
		t.Errorf("stats wrong: %+v", d.Stats)
	}
	if d.Stats.OpEnergyPJ <= 0 {
		t.Error("no energy accounted")
	}
}

func TestActivateOpenBankPanics(t *testing.T) {
	d := NewDevice(smallGeom())
	d.Activate(0, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ACT to open bank")
		}
	}()
	d.Activate(0, 2, 1)
}

func TestReadClosedBankPanics(t *testing.T) {
	d := NewDevice(smallGeom())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on RD to closed bank")
		}
	}()
	d.Read(0, 0)
}

func TestPrechargeIdempotent(t *testing.T) {
	d := NewDevice(smallGeom())
	d.Precharge(0) // no-op
	d.Activate(0, 0, 0)
	d.Precharge(0)
	d.Precharge(0)
	if d.Stats.Precharges != 1 {
		t.Errorf("Precharges = %d, want 1", d.Stats.Precharges)
	}
}

func TestBanksIndependent(t *testing.T) {
	d := NewDevice(smallGeom())
	d.Activate(0, 3, 0)
	d.Activate(1, 7, 0)
	d.Write(0, 0, 1)
	d.Write(1, 0, 2)
	if d.Read(0, 0) != 1 || d.Read(1, 0) != 2 {
		t.Fatal("banks interfere")
	}
	if d.OpenRow(0) != 3 || d.OpenRow(1) != 7 {
		t.Fatal("open rows wrong")
	}
}

func TestActivateRestoresCharge(t *testing.T) {
	d := NewDevice(smallGeom())
	d.Activate(0, 4, 500)
	d.Precharge(0)
	if d.LastRestore(0, 4) != 500 {
		t.Fatalf("LastRestore = %d, want 500", d.LastRestore(0, 4))
	}
	d.RefreshLogRow(0, 4, 900)
	if d.LastRestore(0, 4) != 900 {
		t.Fatalf("refresh did not update LastRestore")
	}
}

// recordingFault captures hook invocations for verification.
type recordingFault struct {
	acts, refs []int
}

func (r *recordingFault) Name() string { return "recording" }
func (r *recordingFault) OnActivate(d *Device, b, row int, now Time) {
	r.acts = append(r.acts, row)
}
func (r *recordingFault) OnRefresh(d *Device, b, row int, now Time) {
	r.refs = append(r.refs, row)
}

func TestFaultHooksInvoked(t *testing.T) {
	d := NewDevice(smallGeom())
	rec := &recordingFault{}
	d.AttachFault(rec)
	d.Activate(0, 9, 0)
	d.Precharge(0)
	d.RefreshLogRow(0, 9, 10)
	if len(rec.acts) != 1 || rec.acts[0] != 9 {
		t.Errorf("acts = %v", rec.acts)
	}
	if len(rec.refs) != 1 || rec.refs[0] != 9 {
		t.Errorf("refs = %v", rec.refs)
	}
}

func TestFaultHookSeesPhysicalRow(t *testing.T) {
	d := NewDevice(smallGeom())
	rt := IdentityRemap(64)
	rt.swap(3, 40)
	d.SetRemap(rt)
	rec := &recordingFault{}
	d.AttachFault(rec)
	d.Activate(0, 3, 0)
	if len(rec.acts) != 1 || rec.acts[0] != 40 {
		t.Fatalf("fault hook saw row %v, want physical 40", rec.acts)
	}
}

func TestAutoRefreshCoversAllRows(t *testing.T) {
	d := NewDevice(smallGeom())
	rec := &recordingFault{}
	d.AttachFault(rec)
	n := 0
	for i := 0; i < 8192; i++ { // one full refresh window of REF commands
		n += d.AutoRefresh(Time(i))
		if n >= d.Geom.Rows {
			break
		}
	}
	seen := map[int]bool{}
	for _, r := range rec.refs {
		seen[r] = true
	}
	// Bank 0's rows must all appear (hooks fire per bank; recording
	// fault records rows for both banks identically).
	if len(seen) != d.Geom.Rows {
		t.Fatalf("auto refresh covered %d distinct rows, want %d", len(seen), d.Geom.Rows)
	}
}

func TestRefreshNeighborOutOfRangeIgnored(t *testing.T) {
	d := NewDevice(smallGeom())
	d.RefreshPhysRow(0, -1, 0) // must not panic
	d.RefreshPhysRow(0, d.Geom.Rows, 0)
	if d.Stats.RowRefreshes != 0 {
		t.Error("out-of-range refresh counted")
	}
}

func TestBitAccessors(t *testing.T) {
	d := NewDevice(smallGeom())
	d.SetPhysBit(0, 2, 70, 1) // word 1, bit 6
	if d.PhysBit(0, 2, 70) != 1 {
		t.Fatal("SetPhysBit/PhysBit mismatch")
	}
	if d.PhysRowWords(0, 2)[1] != 1<<6 {
		t.Fatal("backing word wrong")
	}
	d.FlipPhysBit(0, 2, 70)
	if d.PhysBit(0, 2, 70) != 0 {
		t.Fatal("FlipPhysBit failed")
	}
	d.FillPhysRow(0, 2, 0xffffffffffffffff)
	for i := 0; i < d.Geom.BitsPerRow(); i++ {
		if d.PhysBit(0, 2, i) != 1 {
			t.Fatalf("FillPhysRow missed bit %d", i)
		}
	}
}

func TestBitAccessorProperty(t *testing.T) {
	d := NewDevice(smallGeom())
	if err := quick.Check(func(bitRaw uint16, v bool) bool {
		bit := int(bitRaw) % d.Geom.BitsPerRow()
		var want uint64
		if v {
			want = 1
		}
		d.SetPhysBit(1, 5, bit, want)
		return d.PhysBit(1, 5, bit) == want
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimingDefaults(t *testing.T) {
	tm := DefaultTiming()
	if tm.RetentionWindow() != tm.TREFI*8192 {
		t.Error("retention window math wrong")
	}
	if tm.RetentionWindow() < 63*Millisecond || tm.RetentionWindow() > 65*Millisecond {
		t.Errorf("retention window = %d ns, want ~64ms", tm.RetentionWindow())
	}
	if tm.TRC < tm.TRAS {
		t.Error("tRC must cover tRAS")
	}
}

func TestResetStats(t *testing.T) {
	d := NewDevice(smallGeom())
	d.Activate(0, 0, 0)
	d.ResetStats()
	if d.Stats.Activates != 0 || d.Stats.OpEnergyPJ != 0 {
		t.Error("ResetStats incomplete")
	}
}

func TestRemapBijection(t *testing.T) {
	src := rng.New(1)
	rt := RandomRemap(256, 0.3, src)
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 256; l++ {
		if rt.Log(rt.Phys(l)) != l {
			t.Fatalf("not a bijection at %d", l)
		}
	}
}

func TestRemapIdentity(t *testing.T) {
	rt := IdentityRemap(10)
	if !rt.IsIdentity() {
		t.Fatal("identity not identity")
	}
	src := rng.New(2)
	rt2 := RandomRemap(256, 0.5, src)
	if rt2.IsIdentity() {
		t.Fatal("random remap with fraction 0.5 is identity (astronomically unlikely)")
	}
	rt3 := RandomRemap(256, 0, src)
	if !rt3.IsIdentity() {
		t.Fatal("fraction 0 should be identity")
	}
}

func TestRemapRoundTripThroughSlice(t *testing.T) {
	src := rng.New(3)
	rt := RandomRemap(128, 0.4, src)
	rt2, err := RemapFromPhysSlice(rt.PhysSlice())
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 128; l++ {
		if rt.Phys(l) != rt2.Phys(l) {
			t.Fatalf("round trip mismatch at %d", l)
		}
	}
}

func TestRemapFromPhysSliceRejectsNonBijection(t *testing.T) {
	if _, err := RemapFromPhysSlice([]int{0, 0, 2}); err == nil {
		t.Fatal("duplicate mapping accepted")
	}
	if _, err := RemapFromPhysSlice([]int{0, 5, 2}); err == nil {
		t.Fatal("out-of-range mapping accepted")
	}
}

func TestRemapPropertyRandom(t *testing.T) {
	if err := quick.Check(func(seed uint64, fRaw uint8) bool {
		f := float64(fRaw%100) / 100
		rt := RandomRemap(64, f, rng.New(seed))
		return rt.Validate() == nil
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetRemapWrongSizePanics(t *testing.T) {
	d := NewDevice(smallGeom())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.SetRemap(IdentityRemap(10))
}

// horizonFault is a CycleFaultModel with a scripted horizon that
// records how the device dispatched to it.
type horizonFault struct {
	recordingFault
	horizon int
	reach   int
	chunks  []int // n of every OnHammerCycle call
	firsts  []int // physRows[0] of every OnHammerCycle call
}

func (h *horizonFault) HammerHorizon(d *Device, b int, physRows []int, start, period Time) int {
	return h.horizon
}

func (h *horizonFault) OnHammerCycle(d *Device, b int, physRows []int, n int, start, period Time) {
	h.chunks = append(h.chunks, n)
	h.firsts = append(h.firsts, physRows[0])
}

func (h *horizonFault) RefreshReach(d *Device, b, physRow int, now Time) int { return h.reach }

// commandLoop issues a burst as explicit commands, a gap as the REF's
// precharge before the activation it starts.
func commandLoop(d *Device, cy Cycle) {
	t, g := cy.Start, 0
	for j := 0; j < cy.N; j++ {
		if j > 0 {
			t += cy.Period
		}
		if g < len(cy.Gaps) && cy.Gaps[g].At == j {
			d.Precharge(cy.Bank)
			t = cy.Gaps[g].Start
			g++
		}
		if !cy.ClosedPage {
			d.Precharge(cy.Bank)
		}
		d.Activate(cy.Bank, cy.Rows[(cy.Pos+j)%len(cy.Rows)], t)
		if cy.Read {
			d.Read(cy.Bank, 0)
		}
		if cy.ClosedPage {
			d.Precharge(cy.Bank)
		}
	}
	if g < len(cy.Gaps) {
		d.Precharge(cy.Bank)
	}
}

func compareDevices(t *testing.T, a, b *Device) {
	t.Helper()
	if a.Stats != b.Stats {
		t.Fatalf("stats: %+v vs %+v", a.Stats, b.Stats)
	}
	for bank := 0; bank < a.Geom.Banks; bank++ {
		if a.OpenRow(bank) != b.OpenRow(bank) {
			t.Fatalf("bank %d open row: %d vs %d", bank, a.OpenRow(bank), b.OpenRow(bank))
		}
		for r := 0; r < a.Geom.Rows; r++ {
			if a.LastRestore(bank, r) != b.LastRestore(bank, r) {
				t.Fatalf("bank %d row %d lastRestore: %d vs %d", bank, r, a.LastRestore(bank, r), b.LastRestore(bank, r))
			}
		}
	}
}

func TestHammerCycleMatchesCommandLoop(t *testing.T) {
	rt := IdentityRemap(64)
	rt.swap(3, 40)
	for _, cy := range []Cycle{
		{Bank: 1, Rows: []int{3, 5, 9}, Pos: 1, N: 10, Start: 100, Period: 49, Read: true},
		{Bank: 0, Rows: []int{7, 3}, N: 9, Start: 7, Period: 50, ClosedPage: true},
		{Bank: 0, Rows: []int{12}, N: 4, Start: 0, Period: 60, ClosedPage: true},
	} {
		for _, withModel := range []bool{false, true} {
			fast, slow := NewDevice(smallGeom()), NewDevice(smallGeom())
			fast.SetRemap(rt)
			slow.SetRemap(rt)
			recFast, recSlow := &recordingFault{}, &recordingFault{}
			var scripted *horizonFault
			if withModel {
				scripted = &horizonFault{horizon: 4}
				fast.AttachFault(scripted)
				slow.AttachFault(&horizonFault{})
			} else {
				fast.AttachFault(recFast)
				slow.AttachFault(recSlow)
			}
			if !cy.ClosedPage {
				// Open-page bursts start from whatever row is open.
				fast.Activate(cy.Bank, 20, 0)
				slow.Activate(cy.Bank, 20, 0)
			}
			calls := 0
			for step := cy; step.N > 0; calls++ {
				step.Advance(fast.HammerCycle(step))
			}
			commandLoop(slow, cy)
			compareDevices(t, fast, slow)
			if withModel {
				// Horizon 4 chunks the burst; the model sees every chunk
				// rotated to its first activation.
				want := (cy.N + 3) / 4
				if calls != want || len(scripted.chunks) != want {
					t.Fatalf("%+v: %d calls, %d chunks, want %d", cy, calls, len(scripted.chunks), want)
				}
				for i, first := range scripted.firsts {
					if wantRow := fast.PhysRow(cy.Rows[(cy.Pos+4*i)%len(cy.Rows)]); first != wantRow {
						t.Fatalf("%+v: chunk %d starts at physical row %d, want %d", cy, i, first, wantRow)
					}
				}
			} else {
				// A model without the extension is stepped per activation,
				// with the same hooks as the command loop.
				if calls != cy.N || !slices.Equal(recFast.acts, recSlow.acts) {
					t.Fatalf("%+v: %d calls, hooks %v vs %v", cy, calls, recFast.acts, recSlow.acts)
				}
			}
		}
	}
}

// TestHammerCycleGapsMatchCommandLoop applies bursts with REFs inside
// (gaps) under fault-model horizons that cut them before, at and after
// each gap, and requires the command loop's stats, open row and restore
// clocks. A gap that starts later than one period after the activation
// before it must end the chunk; earlier ones must not.
func TestHammerCycleGapsMatchCommandLoop(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cy    Cycle
		calls int // HammerCycle calls with an unbounded horizon
	}{
		{"early gaps", Cycle{Bank: 1, Rows: []int{3, 5, 9}, Pos: 1, N: 12, Start: 100, Period: 49, Read: true,
			Gaps: []Gap{{At: 3, Start: 100 + 2*49 + 47}, {At: 8, Start: 100 + 7*49 + 45}}}, 1},
		{"trailing gap", Cycle{Bank: 0, Rows: []int{7, 3}, N: 9, Start: 7, Period: 50,
			Gaps: []Gap{{At: 4, Start: 7 + 3*50 + 33}, {At: 9}}}, 1},
		{"late gap", Cycle{Bank: 0, Rows: []int{7, 3, 11}, N: 10, Start: 7, Period: 50, Read: true,
			Gaps: []Gap{{At: 6, Start: 7 + 5*50 + 51}}}, 2},
		{"gap after one activation", Cycle{Bank: 0, Rows: []int{2, 4}, N: 2, Start: 7, Period: 49,
			Gaps: []Gap{{At: 1, Start: 40}, {At: 2}}}, 1},
		{"closed page", Cycle{Bank: 0, Rows: []int{2, 4}, N: 6, Start: 7, Period: 60, ClosedPage: true,
			Gaps: []Gap{{At: 3, Start: 7 + 2*60 + 20}, {At: 6}}}, 1},
	} {
		for _, horizon := range []int{1000, 4, 1, 0} {
			fast, slow := NewDevice(smallGeom()), NewDevice(smallGeom())
			model := &horizonFault{horizon: horizon}
			fast.AttachFault(model)
			slow.AttachFault(&horizonFault{})
			if !tc.cy.ClosedPage {
				fast.Activate(tc.cy.Bank, 20, 0)
				slow.Activate(tc.cy.Bank, 20, 0)
			}
			cy := tc.cy
			cy.Gaps = slices.Clone(tc.cy.Gaps)
			calls := 0
			for cy.N > 0 {
				m := fast.HammerCycle(cy)
				if m < 1 || m > cy.N {
					t.Fatalf("%s horizon %d: applied %d of %d", tc.name, horizon, m, cy.N)
				}
				cy.Advance(m)
				calls++
			}
			commandLoop(slow, tc.cy)
			compareDevices(t, fast, slow)
			if horizon == 1000 && calls != tc.calls {
				t.Errorf("%s: %d HammerCycle calls, want %d (chunks %v)", tc.name, calls, tc.calls, model.chunks)
			}
		}
	}
}

func TestHammerCycleRejectsBadGaps(t *testing.T) {
	for name, gaps := range map[string][]Gap{
		"gap at 0":        {{At: 0, Start: 9}},
		"gap beyond N":    {{At: 5}},
		"gaps unordered":  {{At: 3, Start: 200}, {At: 2, Start: 150}},
		"gaps duplicated": {{At: 2, Start: 150}, {At: 2, Start: 150}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			NewDevice(smallGeom()).HammerCycle(Cycle{Rows: []int{2, 4}, N: 4, Period: 49, Gaps: gaps})
		}()
	}
}

// TestAutoRefreshTouchesUsesSummedReach pins the REF predicate: a
// refreshed row touches a burst within the summed reach of the models,
// a negative reach touches every burst, and a model without the cycle
// extension makes every REF touch.
func TestAutoRefreshTouchesUsesSummedReach(t *testing.T) {
	d := NewDevice(smallGeom())
	a, b := &horizonFault{reach: 2}, &horizonFault{reach: 1}
	d.AttachFault(a)
	d.AttachFault(b)
	// The first REF refreshes row 0 of every bank.
	for _, tc := range []struct {
		bank int
		rows []int
		want bool
	}{
		{0, []int{3, 9}, true},
		{0, []int{4, 9}, false},
		{1, []int{3, 9}, true},
		{0, []int{0}, true},
	} {
		if got := d.AutoRefreshTouches(tc.bank, tc.rows, 100); got != tc.want {
			t.Errorf("reach 2+1, REF row 0, bank %d rows %v: touches %v, want %v", tc.bank, tc.rows, got, tc.want)
		}
	}
	d.AutoRefresh(100)
	if d.AutoRefreshTouches(0, []int{5}, 200) {
		t.Error("REF row 1 touches row 5 at reach 3")
	}
	b.reach = -1
	if !d.AutoRefreshTouches(0, []int{40}, 200) {
		t.Error("a negative reach must touch every burst")
	}
	b.reach = 1
	d.AttachFault(&recordingFault{})
	if !d.AutoRefreshTouches(0, []int{40}, 200) {
		t.Error("a model without the cycle extension must make every REF touch")
	}
}

func TestHammerCycleZeroHorizonSteps(t *testing.T) {
	d := NewDevice(smallGeom())
	a, b := &horizonFault{horizon: 0}, &horizonFault{horizon: 1000}
	d.AttachFault(a)
	d.AttachFault(b)
	if n := d.HammerCycle(Cycle{Rows: []int{4, 6}, N: 50, Period: 49}); n != 1 {
		t.Fatalf("horizon 0: applied %d, want 1", n)
	}
	if len(a.acts) != 1 || len(b.acts) != 1 || len(a.chunks)+len(b.chunks) != 0 {
		t.Fatalf("horizon 0 must dispatch one OnActivate per model: acts %v/%v chunks %v/%v", a.acts, b.acts, a.chunks, b.chunks)
	}
	a.horizon = 7
	if n := d.HammerCycle(Cycle{Rows: []int{4, 6}, Pos: 1, N: 50, Start: 49, Period: 49}); n != 7 {
		t.Fatalf("horizons 7 and 1000: applied %d, want the minimum 7", n)
	}
	if n := d.HammerCycle(Cycle{Rows: []int{4, 6}, N: 3, Start: 400, Period: 49}); n != 3 {
		t.Fatalf("burst shorter than every horizon: applied %d, want 3", n)
	}
}

func TestHammerCycleRejectsBadBursts(t *testing.T) {
	for name, f := range map[string]func(d *Device){
		"closed page on open bank": func(d *Device) {
			d.Activate(0, 1, 0)
			d.HammerCycle(Cycle{Rows: []int{2, 4}, N: 2, Period: 49, ClosedPage: true})
		},
		"repeated row":     func(d *Device) { d.HammerCycle(Cycle{Rows: []int{2, 2}, N: 2, Period: 49}) },
		"row out of range": func(d *Device) { d.HammerCycle(Cycle{Rows: []int{2, 64}, N: 2, Period: 49}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f(NewDevice(smallGeom()))
		}()
	}
}

// TestHammerCycleAfterRejectedAlias pins that a burst rejected for
// aliasing rows leaves no stale marks: the same rows, distinct this
// time, are accepted afterwards.
func TestHammerCycleAfterRejectedAlias(t *testing.T) {
	d := NewDevice(smallGeom())
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("aliasing burst did not panic")
			}
		}()
		d.HammerCycle(Cycle{Rows: []int{2, 4, 2}, N: 3, Period: 49})
	}()
	if n := d.HammerCycle(Cycle{Rows: []int{2, 4}, N: 2, Period: 49}); n != 2 {
		t.Fatalf("distinct burst applied %d activations, want 2", n)
	}
}
