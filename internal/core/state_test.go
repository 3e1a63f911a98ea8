package core

import (
	"errors"
	"testing"

	"repro/internal/dram"
	"repro/internal/modules"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// testModule picks a vulnerable module from the population and scales
// it for a small simulated array, the way cmd/rowhammer does.
func testModule(seed uint64) *modules.Module {
	pop := modules.Population(seed)
	for i := range pop {
		if pop[i].Vulnerable() && pop[i].Year == 2013 {
			m := pop[i].ScaleForSmallArray(50, 100, 0.005)
			return &m
		}
	}
	panic("no vulnerable 2013 module in population")
}

func buildSystem(seed uint64) *System {
	return Build(testModule(seed), Options{
		Topology: dram.Topology{Channels: 2, Ranks: 1, Geom: dram.Geometry{Banks: 1, Rows: 512, Cols: 8}},
	})
}

// hammerCampaign drives a deterministic multi-channel hammer campaign
// across a range of victim sites. half selects the first or second
// half of the site list, so a checkpoint can land exactly between.
func hammerCampaign(s *System, half int) {
	for ch := 0; ch < s.Topo.Channels; ch++ {
		c := s.Mem.Controller(ch)
		for b := 0; b < s.Topo.Geom.Banks; b++ {
			for r := 0; r < s.Topo.Geom.Rows; r++ {
				c.Rank(0).FillPhysRow(b, r, 0xffffffffffffffff)
			}
		}
	}
	lo, hi := 4, 250
	if half == 1 {
		lo, hi = 250, 505
	}
	for ch := 0; ch < s.Topo.Channels; ch++ {
		c := s.Mem.Controller(ch)
		for r := lo; r < hi; r += 5 {
			c.HammerPairsRanked(0, 0, r-1, r+1, 30_000)
		}
	}
}

func systemFingerprint(s *System) (flips int64, cells uint64) {
	flips = s.TotalFlips()
	cells = 1469598103934665603
	for ch := 0; ch < s.Topo.Channels; ch++ {
		for rk := 0; rk < s.Topo.Ranks; rk++ {
			dev := s.Mem.Device(ch, rk)
			for b := 0; b < dev.Geom.Banks; b++ {
				for r := 0; r < dev.Geom.Rows; r++ {
					for _, w := range dev.PhysRowWords(b, r) {
						cells = (cells ^ w) * 1099511628211
					}
				}
			}
		}
	}
	return flips, cells
}

// saveState returns the system's SaveState payload.
func saveState(s *System) []byte {
	var w snapshot.Writer
	s.SaveState(&w)
	return w.Bytes()
}

// loadState restores a SaveState payload into s and requires the
// decoder to consume it exactly.
func loadState(s *System, b []byte) error {
	r := snapshot.NewReader(b)
	if err := s.LoadState(r); err != nil {
		return err
	}
	if n := r.Remaining(); n != 0 {
		return snapshot.Corruptf("%d trailing payload bytes", n)
	}
	return nil
}

// TestCheckpointResumeBitIdentical pins the end-to-end guarantee: a
// multi-channel mitigated hammer campaign saved halfway through,
// restored into a freshly built system, and run to completion is
// bit-identical to the uninterrupted run — at seeds 1 and 5, with
// PARA consuming random draws across the checkpoint boundary.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 5} {
		// Uninterrupted reference. Note the PARA probability is set low
		// enough that flips still occur.
		ref := buildSystem(seed)
		ref.AttachPARAEachChannel(0.0005, rng.New(seed))
		hammerCampaign(ref, 0)
		hammerCampaign(ref, 1)
		refFlips, refCells := systemFingerprint(ref)
		if refFlips == 0 {
			t.Fatalf("seed %d: no flips in reference run; test is vacuous", seed)
		}

		// First run: half the campaign, then save.
		a := buildSystem(seed)
		a.AttachPARAEachChannel(0.0005, rng.New(seed))
		hammerCampaign(a, 0)
		saved := saveState(a)

		// Second run: rebuild from spec, load, finish.
		b := buildSystem(seed)
		b.AttachPARAEachChannel(0.0005, rng.New(seed))
		if err := loadState(b, saved); err != nil {
			t.Fatalf("seed %d: LoadState: %v", seed, err)
		}
		hammerCampaign(b, 1)

		gotFlips, gotCells := systemFingerprint(b)
		if gotFlips != refFlips || gotCells != refCells {
			t.Fatalf("seed %d: resumed run diverged: flips %d/%d, cell hash %x/%x",
				seed, gotFlips, refFlips, gotCells, refCells)
		}
		if b.Mem.AggregateStats() != ref.Mem.AggregateStats() {
			t.Fatalf("seed %d: controller stats diverged after resume", seed)
		}
	}
}

// TestCheckpointWrongSystemRefused pins the configuration-mismatch
// guard: a checkpoint loads only into a system built from the same
// module, seed and topology.
func TestCheckpointWrongSystemRefused(t *testing.T) {
	a := buildSystem(1)
	a.AttachPARAEachChannel(0.001, rng.New(1))
	saved := saveState(a)
	// Different module seed → different population physics.
	b := buildSystem(2)
	b.AttachPARAEachChannel(0.001, rng.New(2))
	if err := loadState(b, saved); !errors.Is(err, snapshot.ErrMismatch) {
		t.Fatalf("wrong module: want ErrMismatch, got %v", err)
	}
	// Different topology.
	c := Build(testModule(1), Options{
		Topology: dram.Topology{Channels: 1, Ranks: 1, Geom: dram.Geometry{Banks: 1, Rows: 512, Cols: 8}},
	})
	if err := loadState(c, saved); !errors.Is(err, snapshot.ErrMismatch) {
		t.Fatalf("wrong topology: want ErrMismatch, got %v", err)
	}
}
