package core

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/memctrl"
)

// buildECCSystem is buildSystem behind SECDED with a patrol scrubber
// on every channel — the deployed-DIMM shape whose extra state (ECC
// shadow words, scrub cursor and counters) the checkpoint must carry.
func buildECCSystem(seed uint64) *System {
	s := Build(testModule(seed), Options{
		Topology: dram.Topology{Channels: 2, Ranks: 1, Geom: dram.Geometry{Banks: 1, Rows: 512, Cols: 8}},
		ECC:      memctrl.ECCConfig{Kind: memctrl.ECCSECDED72},
	})
	for ch := 0; ch < s.Topo.Channels; ch++ {
		s.Mem.Controller(ch).Attach(memctrl.NewScrubber(4))
	}
	return s
}

// eccCampaign fills memory through the controllers (populating the ECC
// shadow), hammers half the victim range, and reads a stripe back so
// ECC events and scrub repairs accumulate across the halves.
func eccCampaign(s *System, half int) {
	g := s.Topo.Geom
	if half == 0 {
		for ch := 0; ch < s.Topo.Channels; ch++ {
			c := s.Mem.Controller(ch)
			for r := 0; r < g.Rows; r++ {
				for col := 0; col < g.Cols; col++ {
					c.AccessRanked(0, memctrl.Coord{Bank: 0, Row: r, Col: col}, true, ^uint64(0))
				}
			}
		}
	}
	lo, hi := 4, 250
	if half == 1 {
		lo, hi = 250, 505
	}
	for ch := 0; ch < s.Topo.Channels; ch++ {
		c := s.Mem.Controller(ch)
		for r := lo; r < hi; r += 10 {
			c.HammerPairsRanked(0, 0, r-1, r+1, 15_000)
		}
		for r := lo; r < hi; r += 10 {
			for col := 0; col < g.Cols; col++ {
				c.AccessRanked(0, memctrl.Coord{Bank: 0, Row: r, Col: col}, false, 0)
			}
		}
	}
}

func scrubCounters(s *System) (scanned, repairs int64) {
	for ch := 0; ch < s.Topo.Channels; ch++ {
		for _, m := range s.Mem.Controller(ch).Mitigations() {
			if sc, ok := m.(*memctrl.Scrubber); ok {
				scanned += sc.WordsScanned
				repairs += sc.Repairs
			}
		}
	}
	return scanned, repairs
}

// TestECCCheckpointResumeBitIdentical extends the end-to-end
// checkpoint guarantee to the ECC threat model: a SECDED+scrub
// campaign interrupted halfway, saved with SaveState, restored with
// LoadState into a freshly built system and run to completion matches
// the uninterrupted run bit for bit — cells, ECC triage counters and
// the patrol scrubber's cursor-dependent repair trajectory.
func TestECCCheckpointResumeBitIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 5} {
		ref := buildECCSystem(seed)
		eccCampaign(ref, 0)
		eccCampaign(ref, 1)
		refFlips, refCells := systemFingerprint(ref)
		refStats := ref.Mem.AggregateStats()
		refScanned, refRepairs := scrubCounters(ref)
		if refFlips == 0 {
			t.Fatalf("seed %d: no flips in reference run; test is vacuous", seed)
		}
		if refStats.ECCCorrected+refStats.ECCDetected+refStats.ECCSilent == 0 {
			t.Fatalf("seed %d: no ECC events in reference run; test is vacuous", seed)
		}
		if refRepairs == 0 {
			t.Fatalf("seed %d: scrubber repaired nothing; test is vacuous", seed)
		}

		a := buildECCSystem(seed)
		eccCampaign(a, 0)
		saved := saveState(a)

		b := buildECCSystem(seed)
		if err := loadState(b, saved); err != nil {
			t.Fatalf("seed %d: LoadState: %v", seed, err)
		}
		eccCampaign(b, 1)

		gotFlips, gotCells := systemFingerprint(b)
		if gotFlips != refFlips || gotCells != refCells {
			t.Fatalf("seed %d: resumed ECC run diverged: flips %d/%d, cell hash %x/%x",
				seed, gotFlips, refFlips, gotCells, refCells)
		}
		if got := b.Mem.AggregateStats(); got != refStats {
			t.Fatalf("seed %d: stats diverged after ECC resume:\n got %+v\nwant %+v", seed, got, refStats)
		}
		gotScanned, gotRepairs := scrubCounters(b)
		if gotScanned != refScanned || gotRepairs != refRepairs {
			t.Fatalf("seed %d: scrubber diverged after resume: %d/%d vs %d/%d",
				seed, gotScanned, gotRepairs, refScanned, refRepairs)
		}
	}
}
