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
}

func (s kernelSpec) String() string {
	return fmt.Sprintf("seed %d roster %#x ecc %v mult %g remap %v", s.seed, s.roster, s.ecc, s.mult, s.remap)
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

func newKernelRig(s kernelSpec) *kernelRig {
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
		dev.AttachFault(dm)
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
	rig.ctrl = NewMultiRank(devs, Config{RefreshMultiplier: s.mult, ECC: ECCConfig{Kind: s.ecc}})
	for i, m := range kernelRoster {
		if s.roster&(1<<i) == 0 || m.name == "scrub" && s.ecc == ECCNone {
			continue
		}
		rig.ctrl.Attach(m.make(rig.ctrl, src.Split()))
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

// runKernelTwins drives a kernel twin and an access-loop twin through
// the same phases and fails on the first divergence.
func runKernelTwins(t *testing.T, s kernelSpec, phases int) {
	t.Helper()
	kern, loop := newKernelRig(s), newKernelRig(s)
	src := rng.New(s.seed ^ 0x6b65726e656c)
	for ph := 0; ph < phases; ph++ {
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
}

func FuzzHammerRowsMatchesAccessLoop(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint8(0))
	f.Add(uint64(2), uint16(1<<0|1<<3), uint8(1))
	f.Add(uint64(3), uint16(1<<2|1<<5|1<<7), uint8(0x16))
	f.Add(uint64(4), uint16(1<<4|1<<6|1<<8), uint8(0x2b))
	f.Add(uint64(5), uint16(0x3ff), uint8(0x3d))
	f.Add(uint64(6), uint16(1<<1|1<<9), uint8(0x0e))
	f.Fuzz(func(t *testing.T, seed uint64, roster uint16, flags uint8) {
		s := kernelSpec{
			seed:   seed,
			roster: roster,
			ecc:    ECCKind(flags & 3),
			mult:   []float64{1, 2, 4, 1.5}[flags>>2&3],
			remap:  flags&0x10 != 0,
		}
		runKernelTwins(t, s, 4)
	})
}

// TestHammerRowsKernelBatches guards the differential test against
// vacuity: under an observing mitigation and ECC the kernel must still
// apply its device work in multi-activation chunks, and ineligible
// row lists must still fall back to the access loop.
func TestHammerRowsKernelBatches(t *testing.T) {
	rig := newKernelRig(kernelSpec{seed: 9, roster: 1 << 3, ecc: ECCSECDED72, mult: 1})
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
