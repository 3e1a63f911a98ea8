package memctrl

import (
	"testing"
	"testing/quick"

	"repro/internal/dram"
)

func testGeom() dram.Geometry { return dram.Geometry{Banks: 2, Rows: 256, Cols: 8} }

func newCtrl(cfg Config) *Controller {
	dev := dram.NewDevice(testGeom())
	return New(dev, cfg)
}

// singleMap is the single-device address layout: RowInterleaved over
// one channel of one rank decodes row : bank : col : offset.
func singleMap() RowInterleaved {
	return RowInterleaved{Topo: dram.SingleChannel(testGeom())}
}

func TestAddressMapBijective(t *testing.T) {
	am := singleMap()
	if err := quick.Check(func(raw uint32) bool {
		addr := (uint64(raw) << 3) % am.Bytes()
		return am.Encode(am.Decode(addr)) == addr
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddressMapCoordsInRange(t *testing.T) {
	am := singleMap()
	if err := quick.Check(func(addr uint64) bool {
		l := am.Decode(addr)
		return l.Channel == 0 && l.Rank == 0 &&
			l.Bank >= 0 && l.Bank < 2 && l.Row >= 0 && l.Row < 256 && l.Col >= 0 && l.Col < 8
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAddressMapRowInterleaved pins the single-device layout with
// literal addresses: row : bank : col : offset, 8 cols and 2 banks.
func TestAddressMapRowInterleaved(t *testing.T) {
	am := singleMap()
	for _, tc := range []struct {
		addr uint64
		want Loc
	}{
		{0x0, Loc{}},
		{0x7, Loc{}},                             // byte-in-word dropped
		{0x8, Loc{Col: 1}},                       // next word, same row
		{0x38, Loc{Col: 7}},                      // last column of bank 0
		{0x40, Loc{Bank: 1}},                     // bank above column
		{0x80, Loc{Row: 1}},                      // row above bank
		{0x100, Loc{Row: 2}},                     //
		{0x7ff8, Loc{Bank: 1, Row: 255, Col: 7}}, // last word
	} {
		if got := am.Decode(tc.addr); got != tc.want {
			t.Errorf("Decode(%#x) = %+v, want %+v", tc.addr, got, tc.want)
		}
		if got := am.Encode(tc.want); got != tc.addr&^7 {
			t.Errorf("Encode(%+v) = %#x, want %#x", tc.want, got, tc.addr&^7)
		}
	}
}

func TestAccessReadWrite(t *testing.T) {
	c := newCtrl(Config{})
	co := Coord{Bank: 0, Row: 2, Col: 0}
	c.AccessRanked(0, co, true, 0xabcdef)
	got, _ := c.AccessRanked(0, co, false, 0)
	if got != 0xabcdef {
		t.Fatalf("read back %x", got)
	}
	if c.Stats.Accesses != 2 {
		t.Errorf("accesses = %d", c.Stats.Accesses)
	}
}

func TestRowHitMissConflictAccounting(t *testing.T) {
	c := newCtrl(Config{DisableRefresh: true})
	c.AccessRanked(0, Coord{Bank: 0, Row: 10, Col: 0}, false, 0) // miss (bank closed)
	c.AccessRanked(0, Coord{Bank: 0, Row: 10, Col: 3}, false, 0) // hit
	c.AccessRanked(0, Coord{Bank: 0, Row: 20, Col: 0}, false, 0) // conflict
	if c.Stats.RowMisses != 1 || c.Stats.RowHits != 1 || c.Stats.RowConflicts != 1 {
		t.Fatalf("hit/miss/conflict = %d/%d/%d", c.Stats.RowHits, c.Stats.RowMisses, c.Stats.RowConflicts)
	}
}

func TestLatencyOrdering(t *testing.T) {
	c := newCtrl(Config{DisableRefresh: true})
	_, missLat := c.AccessRanked(0, Coord{0, 10, 0}, false, 0)
	_, hitLat := c.AccessRanked(0, Coord{0, 10, 1}, false, 0)
	_, confLat := c.AccessRanked(0, Coord{0, 20, 0}, false, 0)
	if !(hitLat < missLat && missLat < confLat) {
		t.Fatalf("latency ordering violated: hit=%d miss=%d conflict=%d", hitLat, missLat, confLat)
	}
}

func TestAutoRefreshRate(t *testing.T) {
	c := newCtrl(Config{})
	c.AdvanceTo(64 * dram.Millisecond)
	// 64 ms / 7.8 us = 8205 REF commands expected (~8192).
	if c.Stats.AutoRefreshes < 8000 || c.Stats.AutoRefreshes > 8400 {
		t.Fatalf("REFs in one window = %d, want ~8200", c.Stats.AutoRefreshes)
	}
}

func TestRefreshMultiplierDoublesRate(t *testing.T) {
	c1 := newCtrl(Config{})
	c2 := newCtrl(Config{})
	c2.Attach(NewRefreshScaling(2))
	c1.AdvanceTo(10 * dram.Millisecond)
	c2.AdvanceTo(10 * dram.Millisecond)
	ratio := float64(c2.Stats.AutoRefreshes) / float64(c1.Stats.AutoRefreshes)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("2x multiplier yields ratio %v", ratio)
	}
	if c1.RetentionWindow() != 2*c2.RetentionWindow() {
		t.Error("retention window not halved")
	}
}

func TestDisableRefresh(t *testing.T) {
	c := newCtrl(Config{DisableRefresh: true})
	c.AdvanceTo(dram.Second)
	if c.Stats.AutoRefreshes != 0 {
		t.Fatal("refresh issued while disabled")
	}
}

func TestRefreshCoversRowsWithinWindow(t *testing.T) {
	dev := dram.NewDevice(testGeom())
	c := New(dev, Config{})
	c.AdvanceTo(64 * dram.Millisecond)
	// Every row must have been restored at least once.
	for r := 0; r < dev.Geom.Rows; r++ {
		if dev.LastRestore(0, r) == 0 {
			t.Fatalf("row %d never refreshed in one window", r)
		}
	}
}

func TestAccessServicesDueRefresh(t *testing.T) {
	c := newCtrl(Config{})
	// A single access after a long idle gap must first catch up on
	// refreshes (the controller folds them into the access path).
	c.AdvanceTo(0)
	for i := 0; i < 3; i++ {
		c.AccessRanked(0, Coord{Bank: i % 2, Row: i / 2}, false, 0)
	}
	before := c.Stats.AutoRefreshes
	// Advance time by accessing in a tight loop long enough to pass
	// several tREFI periods: conflicts take ~tRC each.
	for i := 0; i < 1000; i++ {
		c.AccessRanked(0, Coord{Bank: 0, Row: i % 2 * 50, Col: 0}, false, 0)
	}
	if c.Stats.AutoRefreshes == before {
		t.Fatal("no refreshes serviced during busy access stream")
	}
}

func TestEnergyMonotone(t *testing.T) {
	c := newCtrl(Config{})
	e0 := c.EnergyPJ()
	c.AccessRanked(0, Coord{}, true, 1)
	c.AdvanceTo(dram.Millisecond)
	if c.EnergyPJ() <= e0 {
		t.Fatal("energy not increasing")
	}
}

func TestAdvanceToNeverRewinds(t *testing.T) {
	c := newCtrl(Config{})
	c.AdvanceTo(1000)
	c.AdvanceTo(10)
	if c.Now() < 1000 {
		t.Fatal("time went backwards")
	}
}

func TestRefreshLogRowsIgnoresOutOfRange(t *testing.T) {
	c := newCtrl(Config{DisableRefresh: true})
	c.RefreshLogRows(0, []int{-5, 0, 9999})
	if c.Stats.MitRefreshes != 1 {
		t.Fatalf("MitRefreshes = %d, want 1", c.Stats.MitRefreshes)
	}
}
