package disturb_test

import (
	"bytes"
	"testing"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/modules"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

func saveBytes(m *disturb.Model) []byte {
	var w snapshot.Writer
	m.SaveState(&w)
	return w.Bytes()
}

// TestMemoCampaignModule builds hammer-campaign's four devices from
// its densified 2013 module, at seeds 1 and 5, twice through NewModel:
// both builds must equal a fresh draw, the second from the memo.
func TestMemoCampaignModule(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 128, Cols: 8}
	for _, seed := range []uint64{1, 5} {
		var mod *modules.Module
		pop := modules.Population(seed)
		for i := range pop {
			if pop[i].Year == 2013 && pop[i].Vulnerable() {
				m := pop[i].ScaleForSmallArray(100, 30, 2e-3)
				mod = &m
				break
			}
		}
		if mod == nil {
			t.Fatalf("seed %d: no vulnerable 2013 module", seed)
		}
		for sub := 0; sub < 4; sub++ {
			st := rng.Sub(mod.Seed, uint64(sub)).Split().State()
			fsrc := rng.FromState(st)
			want := disturb.DrawUnmemoized(g, mod.Vuln, fsrc)
			if want.WeakCellCount() == 0 {
				t.Fatalf("seed %d sub %d: empty population; test is vacuous", seed, sub)
			}
			for _, ctx := range []string{"first", "second"} {
				src := rng.FromState(st)
				m := disturb.NewModel(g, mod.Vuln, src)
				if !bytes.Equal(saveBytes(m), saveBytes(want)) {
					t.Fatalf("seed %d sub %d %s build: SaveState bytes differ from a fresh draw", seed, sub, ctx)
				}
				if src.State() != fsrc.State() {
					t.Fatalf("seed %d sub %d %s build: stream state differs from a fresh draw", seed, sub, ctx)
				}
				if !disturb.MemoHolds(g, mod.Vuln, st) {
					t.Fatalf("seed %d sub %d %s build: memo does not hold the population", seed, sub, ctx)
				}
			}
		}
	}
}
