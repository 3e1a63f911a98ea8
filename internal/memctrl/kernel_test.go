package memctrl

// Differential tests for the hammer kernel: HammerRowsRanked must leave
// a system in exactly the state the equivalent AccessRanked loop
// leaves — controller, devices, mitigation tables and random streams,
// fault-model state — whatever rows, rounds, mitigations, ECC, refresh
// rate and remap it runs under.

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/raidr"
	"repro/internal/retention"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// kernelRig is one twin: a two-rank controller whose devices carry
// dense disturbance and fast-decaying retention physics, so horizons
// end on flips, decays and VRT toggles within a short run.
type kernelRig struct {
	ctrl    *Controller
	disturb []*disturb.Model
	ret     []*retention.Model
}

// kernelSpec is the configuration a fuzz input selects.
type kernelSpec struct {
	seed   uint64
	roster uint16 // bit i attaches mitigation i of kernelRoster
	ecc    ECCKind
	mult   float64
	remap  bool
	// steady slows VRT toggles from 100 us to 1 s dwells, so few REFs
	// draw from retention's stream and most may ride a run. retOnly
	// leaves the disturbance model off the devices, so a REF's reach is
	// retention's alone, makes retention cells dense and all
	// DPD-sensitive, and refills every row with random data each phase,
	// so a decay's reads of its neighbours decide often.
	steady, retOnly bool
}

func (s kernelSpec) String() string {
	return fmt.Sprintf("seed %d roster %#x ecc %v mult %g remap %v steady %v retOnly %v",
		s.seed, s.roster, s.ecc, s.mult, s.remap, s.steady, s.retOnly)
}

// kernelRoster lists the mitigations a spec can attach, in attach
// order.
var kernelRoster = []struct {
	name string
	make func(c *Controller, src *rng.Stream) Mitigation
}{
	{"para", func(c *Controller, src *rng.Stream) Mitigation { return NewPARA(0.05, InDRAM, nil, src) }},
	{"para-ctrl", func(c *Controller, src *rng.Stream) Mitigation { return NewPARA(0.03, InController, nil, src) }},
	{"trr", func(c *Controller, src *rng.Stream) Mitigation { return NewTRR(4, 0.2, src) }},
	{"graphene", func(c *Controller, src *rng.Stream) Mitigation { return NewGraphene(6, 120, 4) }},
	{"twice", func(c *Controller, src *rng.Stream) Mitigation { return NewTWiCe(150, 4) }},
	{"anvil", func(c *Controller, src *rng.Stream) Mitigation {
		a := NewANVIL()
		a.SampleRate, a.IntervalSamples = 3, 24
		return a
	}},
	{"cra", func(c *Controller, src *rng.Stream) Mitigation { return NewCRA(200, 4, 64) }},
	{"scrub", func(c *Controller, src *rng.Stream) Mitigation { return NewScrubber(3) }},
	{"multirate", func(c *Controller, src *rng.Stream) Mitigation {
		return NewMultiRate(raidr.NewPlan(64, map[int]bool{5: true, 17: true, 40: true}, 2))
	}},
	{"refresh-x2", func(c *Controller, src *rng.Stream) Mitigation { return NewRefreshScaling(2) }},
}

// newKernelRig builds a twin. With edges non-nil, every observing
// mitigation is attached behind a horizonProbe that records into it.
func newKernelRig(s kernelSpec, edges kernelEdges) *kernelRig {
	g := dram.Geometry{Banks: 2, Rows: 64, Cols: 2}
	dp := disturb.DefaultParams()
	dp.WeakCellFraction = 0.04
	dp.ThresholdMedian = 60
	dp.ThresholdSigma = 1.2
	dp.MinThreshold = 1
	dp.Dist2Fraction = 0.3
	rp := retention.Params{
		WeakFraction: 0.03, MedianSec: 1e-4, Sigma: 0.6, MinSec: 1e-5,
		DPDFraction: 0.3, DPDReduction: 0.5,
		VRTFraction: 0.4, VRTRatio: 4, VRTDwellSec: 1e-4, TemperatureC: 45,
	}
	if s.steady {
		rp.VRTDwellSec = 1
	}
	if s.retOnly {
		rp.WeakFraction, rp.DPDFraction = 0.25, 1
	}
	src := rng.New(s.seed)
	rig := &kernelRig{}
	var devs []*dram.Device
	for rank := 0; rank < 2; rank++ {
		dev := dram.NewDevice(g)
		if s.remap {
			dev.SetRemap(dram.RandomRemap(g.Rows, 0.3, src.Split()))
		}
		dm := disturb.NewModel(g, dp, src.Split())
		rm := retention.NewModel(g, rp, src.Split())
		if !s.retOnly {
			dev.AttachFault(dm)
		}
		dev.AttachFault(rm)
		for b := 0; b < g.Banks; b++ {
			for r := 0; r < g.Rows; r++ {
				dev.FillPhysRow(b, r, 0x5555555555555555<<(r%2))
			}
		}
		devs = append(devs, dev)
		rig.disturb = append(rig.disturb, dm)
		rig.ret = append(rig.ret, rm)
	}
	rig.ctrl = NewMultiRank(devs, Config{ECC: ECCConfig{Kind: s.ecc}})
	if s.mult != 1 {
		rig.ctrl.Attach(NewRefreshScaling(s.mult))
	}
	for i, m := range kernelRoster {
		if s.roster&(1<<i) == 0 || m.name == "scrub" && s.ecc == ECCNone {
			continue
		}
		mit := m.make(rig.ctrl, src.Split())
		if hm, ok := mit.(HorizonMitigation); ok && edges != nil && m.name != "refresh-x2" && m.name != "scrub" && m.name != "multirate" {
			mit = &horizonProbe{HorizonMitigation: hm, name: m.name, edges: edges}
		}
		rig.ctrl.Attach(mit)
	}
	if s.ecc != ECCNone {
		// Record the stripes in the ECC shadow through the controller.
		for rank := 0; rank < 2; rank++ {
			for b := 0; b < g.Banks; b++ {
				for r := 0; r < g.Rows; r++ {
					rig.ctrl.AccessRanked(rank, Coord{Bank: b, Row: r}, true, 0x5555555555555555<<(r%2))
				}
			}
		}
	}
	return rig
}

// fill overwrites every row of every rank with words drawn from src.
func (rig *kernelRig) fill(src *rng.Stream) {
	for rank := 0; rank < rig.ctrl.NumRanks(); rank++ {
		dev := rig.ctrl.Rank(rank)
		for b := 0; b < dev.Geom.Banks; b++ {
			for r := 0; r < dev.Geom.Rows; r++ {
				for i := range dev.PhysRowWords(b, r) {
					dev.PhysRowWords(b, r)[i] = src.Uint64()
				}
			}
		}
	}
}

// state is the twin's full snapshot: controller (clocks, stats, every
// rank's device, every mitigation's tables and random streams, the ECC
// shadow) followed by every fault model.
func (rig *kernelRig) state() []byte {
	var w snapshot.Writer
	rig.ctrl.SaveState(&w)
	for i := range rig.disturb {
		rig.disturb[i].SaveState(&w)
		rig.ret[i].SaveState(&w)
	}
	return w.Bytes()
}

// kernelRows draws a hammer row list: 1-4 aggressors two apart, 0-3
// decoys from the top of the bank (which can overlap the aggressors)
// and sometimes a repeated row.
func kernelRows(src *rng.Stream, rows int) []int {
	sides := 1 + src.Intn(4)
	base := src.Intn(rows - 2*sides + 1)
	var out []int
	for i := 0; i < sides; i++ {
		out = append(out, base+2*i)
	}
	for r := rows - 2; r > 0 && len(out) < sides+src.Intn(4); r -= 2 {
		out = append(out, r)
	}
	if src.Bool(0.15) {
		out = append(out, out[src.Intn(len(out))])
	}
	return out
}

// kernelEdges is the set of horizon edges a kernel twin reached, keyed
// "<mitigation>@<edge>".
type kernelEdges map[string]bool

// horizonProbe forwards an observing mitigation unchanged (saved state
// included, so the twins still compare byte for byte) and records
// which horizon edges the kernel drove it through:
//
//   - first: the activation that starts a chunk acts (horizon 0)
//   - last: the last activation the chunk could hold acts
//   - mid: the horizon cuts the chunk short
//   - overfull: the cycle has more rows than the Graphene table
//   - exchange: a Graphene stretch applied in bulk inserts or
//     exchanges a row
//   - before-ref: the mitigation acts on the access just before a REF
type horizonProbe struct {
	HorizonMitigation
	name  string
	edges kernelEdges
}

func (p *horizonProbe) ActivateHorizon(c *Controller, flat int, rows []int, pos, max int) int {
	h := p.HorizonMitigation.ActivateHorizon(c, flat, rows, pos, max)
	switch {
	case h == 0 && max > 1:
		p.edges[p.name+"@first"] = true
	case h == max-1 && h > 0:
		p.edges[p.name+"@last"] = true
	}
	if h > 0 && h < max {
		p.edges[p.name+"@mid"] = true
	}
	if g, ok := p.HorizonMitigation.(*Graphene); ok && len(rows) > g.Entries {
		p.edges[p.name+"@overfull"] = true
	}
	return h
}

func (p *horizonProbe) OnActivateCycle(c *Controller, flat int, rows []int, pos, n int) {
	if g, ok := p.HorizonMitigation.(*Graphene); ok && grapheneChurns(g, c, flat, rows, pos, n) {
		p.edges[p.name+"@exchange"] = true
	}
	p.HorizonMitigation.OnActivateCycle(c, flat, rows, pos, n)
}

// grapheneChurns reports whether n activations of the cycle from pos
// insert or exchange a row in bank flat's table, by replaying them on a
// copy.
func grapheneChurns(g *Graphene, c *Controller, flat int, rows []int, pos, n int) bool {
	tb := g.tables[flat]
	tb.entries = slices.Clone(tb.entries)
	for j := 0; j < n; j++ {
		phys := c.PhysRowAt(flat, rows[(pos+j)%len(rows)])
		if tb.find(phys) < 0 && g.observe(&tb, phys) >= 0 {
			return true
		}
	}
	return false
}

func (p *horizonProbe) OnActivate(c *Controller, bank, logRow int) {
	before := c.Stats.MitRefreshes
	p.HorizonMitigation.OnActivate(c, bank, logRow)
	t := c.Rank(0).Timing
	if c.Stats.MitRefreshes > before && c.Now()+t.TRP+t.TRCD+t.TCL+t.TBURST >= c.NextRefreshDue() {
		p.edges[p.name+"@before-ref"] = true
	}
}

func (p *horizonProbe) SaveState(w *snapshot.Writer) {
	p.HorizonMitigation.(StatefulMitigation).SaveState(w)
}

func (p *horizonProbe) LoadState(r *snapshot.Reader) error {
	return p.HorizonMitigation.(StatefulMitigation).LoadState(r)
}

// runKernelTwins drives a kernel twin and an access-loop twin through
// the same phases and fails on the first divergence. It returns the
// horizon edges the kernel twin reached, and two REF edges: ref@ridden
// (a REF left a pending run pending) and ref@flushed (a REF flushed
// one, its rows inside the run's reach or its hooks reading cells).
func runKernelTwins(t *testing.T, s kernelSpec, phases int) kernelEdges {
	t.Helper()
	edges := kernelEdges{}
	kern, loop := newKernelRig(s, edges), newKernelRig(s, nil)
	src := rng.New(s.seed ^ 0x6b65726e656c)
	for ph := 0; ph < phases; ph++ {
		if s.retOnly {
			kern.fill(rng.Sub(s.seed, uint64(ph)))
			loop.fill(rng.Sub(s.seed, uint64(ph)))
		}
		rank, bank := src.Intn(2), src.Intn(2)
		rows := kernelRows(src, 64)
		rounds := src.Intn(300)
		kern.ctrl.HammerRowsRanked(rank, bank, rows, rounds)
		for i := 0; i < rounds; i++ {
			for _, r := range rows {
				loop.ctrl.AccessRanked(rank, Coord{Bank: bank, Row: r}, false, 0)
			}
		}
		if kern.ctrl.Now() != loop.ctrl.Now() || kern.ctrl.Stats != loop.ctrl.Stats {
			t.Fatalf("%v phase %d rows %v rounds %d: kernel now %d stats %+v, access loop now %d stats %+v",
				s, ph, rows, rounds, kern.ctrl.Now(), kern.ctrl.Stats, loop.ctrl.Now(), loop.ctrl.Stats)
		}
		if !bytes.Equal(kern.state(), loop.state()) {
			t.Fatalf("%v phase %d rows %v rounds %d: saved state diverges", s, ph, rows, rounds)
		}
		// Idle time lets retention decay the rows the next phase
		// hammers; a stray access moves the open row.
		until := kern.ctrl.Now() + dram.Time(src.Intn(200))*dram.Microsecond
		kern.ctrl.AdvanceTo(until)
		loop.ctrl.AdvanceTo(until)
		co := Coord{Bank: src.Intn(2), Row: src.Intn(64)}
		rank = src.Intn(2)
		kern.ctrl.AccessRanked(rank, co, false, 0)
		loop.ctrl.AccessRanked(rank, co, false, 0)
	}
	kc := kern.ctrl.KernelCounters()
	if kc.Batched > 0 {
		edges["kernel@batched"] = true
	}
	if kc.RefsRidden > 0 {
		edges["ref@ridden"] = true
	}
	if kc.RefFlushes > 0 {
		edges["ref@flushed"] = true
	}
	return edges
}

func FuzzHammerRowsMatchesAccessLoop(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint8(0))
	f.Add(uint64(2), uint16(1<<0|1<<3), uint8(1))
	f.Add(uint64(3), uint16(1<<2|1<<5|1<<7), uint8(0x16))
	f.Add(uint64(4), uint16(1<<4|1<<6|1<<8), uint8(0x2b))
	f.Add(uint64(5), uint16(0x3ff), uint8(0x3d))
	f.Add(uint64(6), uint16(1<<1|1<<9), uint8(0x0e))
	for _, e := range kernelEdgeSeeds {
		f.Add(e.seed, e.roster, e.flags)
	}
	f.Fuzz(func(t *testing.T, seed uint64, roster uint16, flags uint8) {
		runKernelTwins(t, fuzzKernelSpec(seed, roster, flags), 4)
	})
}

func fuzzKernelSpec(seed uint64, roster uint16, flags uint8) kernelSpec {
	return kernelSpec{
		seed:    seed,
		roster:  roster,
		ecc:     ECCKind(flags & 3),
		mult:    []float64{1, 2, 4, 1.5}[flags>>2&3],
		remap:   flags&0x10 != 0,
		steady:  flags&0x20 != 0,
		retOnly: flags&0x40 != 0,
	}
}

// kernelEdgeSeeds are fuzz corpus entries at the mitigation horizon
// edges, each with the edges it reaches (TestKernelEdgeSeedsReachEdges
// keeps them honest when the harness or the kernel changes).
var kernelEdgeSeeds = []struct {
	seed   uint64
	roster uint16
	flags  uint8
	want   []string
}{
	// PARA acting on the first and on the last activation of a chunk,
	// in the device and (under remap, with RAIDR) in the controller.
	{1003, 1 << 0, 0x00, []string{"para@first", "para@last"}},
	{1037, 1<<1 | 1<<9, 0x14, []string{"para-ctrl@first", "para-ctrl@last"}},
	// Graphene over a cycle with more rows than table entries.
	{1078, 1 << 3, 0x01, []string{"graphene@overfull", "graphene@mid"}},
	// TWiCe and CRA acting on the access just before a REF.
	{1111, 1 << 4, 0x04, []string{"twice@before-ref"}},
	{1148, 1 << 6, 0x12, []string{"cra@before-ref"}},
	// An ANVIL window that fills mid-chunk.
	{1185, 1 << 5, 0x0c, []string{"anvil@mid"}},
	// All six observers together, under SECDED and remap.
	{1222, 1<<0 | 1<<2 | 1<<3 | 1<<4 | 1<<5 | 1<<6, 0x11,
		[]string{"kernel@batched", "para@first", "graphene@mid", "twice@mid", "anvil@mid", "cra@mid"}},
	// REFs that ride a pending run and REFs that flush it: under the
	// default physics, with retention alone (a reach of 1) and steady
	// VRT, and under two observers with SECDED and remap.
	{1370, 0, 0x00, []string{"ref@ridden", "ref@flushed"}},
	{1259, 0, 0x60, []string{"ref@ridden", "ref@flushed"}},
	// Retention alone, where REFs next to a hammered row must flush: a
	// reach of 0 instead of 1 makes this seed's twins diverge.
	{47, 0, 0x69, []string{"ref@ridden", "ref@flushed"}},
	{1333, 1<<3 | 1<<4, 0x31, []string{"ref@ridden", "graphene@mid", "twice@mid"}},
	// Graphene stretches that insert and exchange rows in bulk.
	{1078, 1 << 3, 0x01, []string{"graphene@exchange", "graphene@overfull"}},
}

func TestKernelEdgeSeedsReachEdges(t *testing.T) {
	for _, e := range kernelEdgeSeeds {
		edges := runKernelTwins(t, fuzzKernelSpec(e.seed, e.roster, e.flags), 4)
		for _, w := range e.want {
			if !edges[w] {
				t.Errorf("seed %d roster %#x flags %#x: edge %s not reached (reached %v)", e.seed, e.roster, e.flags, w, edges)
			}
		}
	}
}

// TestHammerRowsKernelBatches guards the differential test against
// vacuity: under an observing mitigation and ECC the kernel must still
// apply its device work in multi-activation chunks, and ineligible
// row lists must still fall back to the access loop.
func TestHammerRowsKernelBatches(t *testing.T) {
	rig := newKernelRig(kernelSpec{seed: 9, roster: 1 << 3, ecc: ECCSECDED72, mult: 1}, nil)
	dev := rig.ctrl.Rank(0)
	before := dev.Stats.Activates
	rig.ctrl.HammerRowsRanked(0, 0, []int{10, 12, 14, 16, 60, 58}, 500)
	if got := dev.Stats.Activates - before; got != 3000 {
		t.Fatalf("6 rows x 500 rounds: %d activations, want 3000", got)
	}
	if rig.ctrl.run.n != 0 {
		t.Fatalf("pending run not flushed: %+v", rig.ctrl.run)
	}
	if !slices.Equal(rig.ctrl.run.rows, []int{10, 12, 14, 16, 60, 58}) {
		t.Fatalf("kernel did not take the batched path: run rows %v", rig.ctrl.run.rows)
	}
	for _, rows := range [][]int{{7}, {7, 7}, {3, 64}, {-1, 5}} {
		if rig.ctrl.cycleRows(0, rows) {
			t.Errorf("rows %v accepted for batching", rows)
		}
	}
}

// TestKernelBatchesUnderEachDefence guards the mitigation horizons
// against vacuity: a horizon stuck at 0 still passes every
// equivalence test, so under each hammer-campaign defence most of a
// 2-row and a 6-row kernel call must be served in closed form.
func TestKernelBatchesUnderEachDefence(t *testing.T) {
	defences := []struct {
		name string
		make func() Mitigation
	}{
		{"para", func() Mitigation { return NewPARA(0.01, InDRAM, nil, rng.New(11)) }},
		{"trr", func() Mitigation { return NewTRR(4, 0.05, rng.New(12)) }},
		{"graphene", func() Mitigation { return NewGraphene(8, 1000, 4) }},
		// A table already full of other rows: the cycle's rows stay
		// untracked until the spillover reaches the smallest count.
		{"graphene-full", func() Mitigation {
			g := NewGraphene(8, 1000, 4)
			tb := &g.tables[1*2+1]
			for i := range tb.entries {
				tb.entries[i] = g.newEntry(30+2*i, 5000)
			}
			tb.used = len(tb.entries)
			return g
		}},
		// A table with fewer free slots than the 6-row cycle has rows,
		// the rest held by rows at nearby counts far above the cycle's:
		// the cycle churns through the free slots, so nearly every
		// activation of an untracked row exchanges.
		{"graphene-storm", func() Mitigation {
			g := NewGraphene(8, 1000, 4)
			fillGrapheneStorm(g, 1*2+1)
			return g
		}},
		{"twice", func() Mitigation { return NewTWiCe(1000, 4) }},
		{"anvil", func() Mitigation { return NewANVIL() }},
		{"cra", func() Mitigation { return NewCRA(1000, 4, 64) }},
	}
	for _, d := range defences {
		for _, rows := range [][]int{{10, 12}, {10, 12, 14, 16, 60, 58}} {
			rig := newKernelRig(kernelSpec{seed: 9, mult: 1}, nil)
			rig.ctrl.Attach(d.make())
			rig.ctrl.HammerRowsRanked(1, 1, rows, 3000)
			kc := rig.ctrl.KernelCounters()
			if total := kc.Batched + kc.Stepped; total != int64(3000*len(rows)) {
				t.Fatalf("%s %d rows: counted %d accesses, want %d", d.name, len(rows), total, 3000*len(rows))
			}
			share := float64(kc.Batched) / float64(3000*len(rows))
			t.Logf("%s %d rows: %.1f%% closed form %+v", d.name, len(rows), 100*share, kc)
			if share < 0.9 {
				t.Errorf("%s %d rows: %.1f%% of accesses in closed form (%+v), want >= 90%%", d.name, len(rows), 100*share, kc)
			}
		}
	}
}

// fillGrapheneStorm pre-fills five of bank flat's eight slots with odd
// rows at nearby counts of about 20,000, leaving three free slots and
// a spillover of 0.
func fillGrapheneStorm(g *Graphene, flat int) {
	tb := &g.tables[flat]
	for i := 0; i < 5; i++ {
		tb.entries[i] = g.newEntry(21+2*i, 20000+int64(i))
	}
	tb.used, tb.spill = 5, 0
}

// TestKernelRidesREFs guards the REF ride against vacuity: a REF whose
// rows lie outside the reach of a 2-row hammer call must leave its run
// pending, so one 2,500-pair call in a 128-row bank with no mitigation
// rides most of the REFs that land on it, and still matches the access
// loop.
func TestKernelRidesREFs(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 128, Cols: 4}
	fast := newHammerSystem(t, g, 51, true, 1)
	slow := newHammerSystem(t, g, 51, true, 1)
	fast.ctrl.HammerPairsRanked(0, 0, 40, 42, 2500)
	naiveHammerPairs(slow.ctrl, 0, 40, 42, 2500)
	compareSystems(t, fast, slow, "2,500 pairs")
	kc := fast.ctrl.KernelCounters()
	landed := kc.RefsRidden + kc.RefFlushes
	t.Logf("%+v", kc)
	if landed < 20 || float64(kc.RefsRidden) < 0.8*float64(landed) {
		t.Fatalf("rode %d of %d REFs that landed on the run (%+v), want >= 80%%", kc.RefsRidden, landed, kc)
	}
}
