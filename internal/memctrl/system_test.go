package memctrl

import (
	"testing"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/raidr"
	"repro/internal/rng"
)

func buildTopo(t dram.Topology) [][]*dram.Device {
	devs := make([][]*dram.Device, t.Channels)
	for ch := range devs {
		for rk := 0; rk < t.Ranks; rk++ {
			devs[ch] = append(devs[ch], dram.NewDevice(t.Geom))
		}
	}
	return devs
}

// TestAssemble: a bad topology or an unknown mapping is an error, not
// a panic, and attach sees each device once, channel-major, and that
// device is the one the system serves.
func TestAssemble(t *testing.T) {
	g := dram.Geometry{Banks: 2, Rows: 32, Cols: 4}
	never := func(ch, rk int, dev *dram.Device) { t.Fatalf("attach called for ch%d/rk%d of a refused build", ch, rk) }
	for _, tc := range []struct {
		name    string
		topo    dram.Topology
		mapping string
	}{
		{"zero channels", dram.Topology{Channels: 0, Ranks: 1, Geom: g}, "row"},
		{"negative ranks", dram.Topology{Channels: 1, Ranks: -2, Geom: g}, "row"},
		{"zero geometry", dram.Topology{Channels: 1, Ranks: 1}, "row"},
		{"unknown mapping", dram.Topology{Channels: 2, Ranks: 1, Geom: g}, "diagonal"},
	} {
		if ms, err := Assemble(tc.topo, tc.mapping, Config{}, never); err == nil || ms != nil {
			t.Fatalf("%s: Assemble = (%v, %v), want an error", tc.name, ms, err)
		}
	}

	topo := dram.Topology{Channels: 3, Ranks: 2, Geom: g}
	type seen struct {
		ch, rk int
		dev    *dram.Device
	}
	var order []seen
	ms, err := Assemble(topo, "xor", Config{}, func(ch, rk int, dev *dram.Device) {
		if dev.Geom != g {
			t.Fatalf("ch%d/rk%d: device geometry %+v, want %+v", ch, rk, dev.Geom, g)
		}
		order = append(order, seen{ch, rk, dev})
	})
	if err != nil {
		t.Fatal(err)
	}
	if ms.Policy().Name() != "xor-bank-hash" || ms.Channels() != topo.Channels {
		t.Fatalf("built %d channels under %s", ms.Channels(), ms.Policy().Name())
	}
	if len(order) != topo.Devices() {
		t.Fatalf("attach called %d times, want %d", len(order), topo.Devices())
	}
	for i, s := range order {
		if s.ch != i/topo.Ranks || s.rk != i%topo.Ranks {
			t.Fatalf("call %d saw ch%d/rk%d, want channel-major ch%d/rk%d", i, s.ch, s.rk, i/topo.Ranks, i%topo.Ranks)
		}
		if ms.Device(s.ch, s.rk) != s.dev {
			t.Fatalf("ch%d/rk%d: the attached device is not the one the system serves", s.ch, s.rk)
		}
	}
}

func TestMultiRankMismatchedGeomPanics(t *testing.T) {
	a := dram.NewDevice(dram.Geometry{Banks: 2, Rows: 32, Cols: 4})
	b := dram.NewDevice(dram.Geometry{Banks: 2, Rows: 64, Cols: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched rank geometries did not panic")
		}
	}()
	NewMultiRank([]*dram.Device{a, b}, Config{})
}

// TestMultiRankAccessIsolation writes distinct words to the same
// coordinate on different ranks and reads them back: ranks must not
// alias.
func TestMultiRankAccessIsolation(t *testing.T) {
	g := dram.Geometry{Banks: 2, Rows: 32, Cols: 4}
	c := NewMultiRank([]*dram.Device{dram.NewDevice(g), dram.NewDevice(g)}, Config{})
	co := Coord{Bank: 1, Row: 5, Col: 2}
	c.AccessRanked(0, co, true, 0x1111)
	c.AccessRanked(1, co, true, 0x2222)
	if v, _ := c.AccessRanked(0, co, false, 0); v != 0x1111 {
		t.Fatalf("rank 0 read %#x", v)
	}
	if v, _ := c.AccessRanked(1, co, false, 0); v != 0x2222 {
		t.Fatalf("rank 1 read %#x", v)
	}
	if c.NumRanks() != 2 {
		t.Fatalf("NumRanks = %d", c.NumRanks())
	}
}

// TestMultiRankRefreshCoversAllRanks runs idle time past several tREFI
// and checks every rank saw auto-refresh.
func TestMultiRankRefreshCoversAllRanks(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 32, Cols: 2}
	c := NewMultiRank([]*dram.Device{dram.NewDevice(g), dram.NewDevice(g)}, Config{})
	c.AdvanceTo(100 * c.Rank(0).Timing.TREFI)
	for rk := 0; rk < 2; rk++ {
		if c.Rank(rk).Stats.RowRefreshes == 0 {
			t.Fatalf("rank %d never refreshed", rk)
		}
	}
	if c.Rank(0).Stats.RowRefreshes != c.Rank(1).Stats.RowRefreshes {
		t.Fatalf("lockstep refresh diverged: %d vs %d",
			c.Rank(0).Stats.RowRefreshes, c.Rank(1).Stats.RowRefreshes)
	}
}

// TestSingleRankMatchesLegacyController proves the multi-rank refactor
// kept the single-device path bit-identical: a 1-channel 1-rank
// MemorySystem driven by flat row-interleaved addresses equals a twin
// controller driven by the decoded rank-0 coordinates.
func TestSingleRankMatchesLegacyController(t *testing.T) {
	g := dram.Geometry{Banks: 2, Rows: 64, Cols: 4}
	p := RowInterleaved{Topo: dram.SingleChannel(g)}
	ms := NewSystem([][]*dram.Device{{dram.NewDevice(g)}}, p, Config{})
	b := New(dram.NewDevice(g), Config{})
	src := rng.New(3)
	for i := 0; i < 20000; i++ {
		co := Coord{Bank: src.Intn(g.Banks), Row: src.Intn(g.Rows), Col: src.Intn(g.Cols)}
		write := src.Bool(0.3)
		data := src.Uint64()
		va, la := ms.Access(p.Encode(Loc{Bank: co.Bank, Row: co.Row, Col: co.Col}), write, data)
		vb, lb := b.AccessRanked(0, co, write, data)
		if va != vb || la != lb {
			t.Fatalf("access %d: (%#x,%d) vs (%#x,%d)", i, va, la, vb, lb)
		}
	}
	if a := ms.Controller(0); a.Stats != b.Stats || a.Now() != b.Now() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats, b.Stats)
	}
}

// TestMemorySystemRouting writes through flat addresses under each
// policy and verifies the data lands exactly where the policy says it
// does (read back both through the system and the raw device).
func TestMemorySystemRouting(t *testing.T) {
	topo := dram.Topology{Channels: 2, Ranks: 2, Geom: dram.Geometry{Banks: 4, Rows: 32, Cols: 8}}
	for _, policy := range Policies(topo) {
		ms := NewSystem(buildTopo(topo), policy, Config{})
		src := rng.New(17)
		type written struct {
			l Loc
			v uint64
		}
		var log []written
		for i := 0; i < 500; i++ {
			addr := src.Uint64n(policy.Bytes()) &^ 7
			v := src.Uint64()
			ms.Access(addr, true, v)
			log = append(log, written{policy.Decode(addr), v})
		}
		// Later writes may overwrite earlier ones; replay forward to
		// compute the expected final value per location.
		final := map[Loc]uint64{}
		for _, w := range log {
			final[w.l] = w.v
		}
		for l, want := range final {
			got, _ := ms.AccessLoc(l, false, 0)
			if got != want {
				t.Fatalf("%s: read %+v = %#x, want %#x", policy.Name(), l, got, want)
			}
		}
		agg := ms.AggregateStats()
		var sum int64
		for ch := 0; ch < ms.Channels(); ch++ {
			sum += ms.Controller(ch).Stats.Accesses
		}
		if agg.Accesses != sum {
			t.Fatalf("%s: aggregate %d != channel sum %d", policy.Name(), agg.Accesses, sum)
		}
	}
}

// newDisturbedSystem builds a MemorySystem with per-device disturbance
// physics (independent streams per device), mirroring core.Build
// without importing it (core imports memctrl).
func newDisturbedSystem(topo dram.Topology, seed uint64) (*MemorySystem, []*disturb.Model) {
	p := disturb.DefaultParams()
	p.WeakCellFraction = 4e-3
	p.ThresholdMedian = 3000
	p.MinThreshold = 400
	p.Dist2Fraction = 0.2
	var dms []*disturb.Model
	devs := make([][]*dram.Device, topo.Channels)
	for ch := 0; ch < topo.Channels; ch++ {
		for rk := 0; rk < topo.Ranks; rk++ {
			dev := dram.NewDevice(topo.Geom)
			dm := disturb.NewModel(topo.Geom, p, rng.New(seed+uint64(ch*topo.Ranks+rk)*0x9e3779b9))
			dev.AttachFault(dm)
			for r := 0; r < topo.Geom.Rows; r++ {
				pat := uint64(0xaaaaaaaaaaaaaaaa)
				if r%2 == 1 {
					pat = 0x5555555555555555
				}
				for b := 0; b < topo.Geom.Banks; b++ {
					dev.FillPhysRow(b, r, pat)
				}
			}
			devs[ch] = append(devs[ch], dev)
			dms = append(dms, dm)
		}
	}
	return NewSystem(devs, RowInterleaved{Topo: topo}, Config{}), dms
}

// hammerAllChannels is the per-channel workload the equivalence test
// runs: a hammer sweep over every rank and bank of the channel.
func hammerAllChannels(ms *MemorySystem, workers int) {
	topo := ms.Topology()
	ms.ShardChannels(workers, func(ch int, c *Controller) {
		for rk := 0; rk < topo.Ranks; rk++ {
			for b := 0; b < topo.Geom.Banks; b++ {
				for v := 5; v < topo.Geom.Rows-1; v += 7 {
					c.HammerPairsRanked(rk, b, v-1, v+1, 2500)
				}
			}
		}
	})
}

// TestMitigatedShardedExecutionBitIdentical extends the sharding
// equivalence proof to mitigated runs: every mitigation in the
// registry is attached — one independent instance per channel, with
// per-channel random streams where the mitigation draws randomness —
// to all channels of a 4×2 topology, and the same cross-bank hammer
// campaign must leave serial and channel-sharded twins bit-identical:
// cell contents, fault-model flips, controller stats (including
// mitigation refresh and time charging) and clocks.
func TestMitigatedShardedExecutionBitIdentical(t *testing.T) {
	topo := dram.Topology{Channels: 4, Ranks: 2, Geom: dram.Geometry{Banks: 2, Rows: 48, Cols: 4}}
	kinds := []struct {
		name   string
		attach func(c *Controller, ch int)
	}{
		{"PARA", func(c *Controller, ch int) {
			c.Attach(NewPARA(0.02, InDRAM, nil, rng.New(uint64(1000+ch))))
		}},
		{"CRA", func(c *Controller, ch int) {
			c.Attach(NewCRA(900, topo.Ranks*topo.Geom.Banks, topo.Geom.Rows))
		}},
		{"TRR", func(c *Controller, ch int) {
			c.Attach(NewTRR(4, 0.01, rng.New(uint64(2000+ch))))
		}},
		{"ANVIL", func(c *Controller, ch int) { c.Attach(NewANVIL()) }},
		{"Graphene", func(c *Controller, ch int) {
			c.Attach(NewGraphene(4, 900, topo.Ranks*topo.Geom.Banks))
		}},
		{"TWiCe", func(c *Controller, ch int) {
			c.Attach(NewTWiCe(900, topo.Ranks*topo.Geom.Banks))
		}},
		{"RefreshScaling", func(c *Controller, ch int) { c.Attach(NewRefreshScaling(3)) }},
		{"MultiRate", func(c *Controller, ch int) {
			c.Attach(NewMultiRate(raidr.NewPlan(topo.Geom.Rows, map[int]bool{5: true}, 4)))
		}},
	}
	hammer := func(ms *MemorySystem, workers int) {
		ms.ShardChannels(workers, func(ch int, c *Controller) {
			for rk := 0; rk < topo.Ranks; rk++ {
				for b := 0; b < topo.Geom.Banks; b++ {
					for v := 5; v < topo.Geom.Rows-1; v += 11 {
						c.HammerPairsRanked(rk, b, v-1, v+1, 600)
					}
				}
			}
		})
	}
	for _, kind := range kinds {
		build := func() (*MemorySystem, []*disturb.Model) {
			ms, dms := newDisturbedSystem(topo, 77)
			for ch := 0; ch < ms.Channels(); ch++ {
				kind.attach(ms.Controller(ch), ch)
			}
			return ms, dms
		}
		serial, serialDMs := build()
		sharded, shardedDMs := build()
		hammer(serial, 1)
		hammer(sharded, 4)
		for i := range serialDMs {
			if a, b := serialDMs[i].TotalFlips(), shardedDMs[i].TotalFlips(); a != b {
				t.Fatalf("%s: device %d flips %d vs %d", kind.name, i, a, b)
			}
		}
		agg := serial.AggregateStats()
		if kind.name != "RefreshScaling" && kind.name != "MultiRate" && agg.MitRefreshes == 0 {
			t.Fatalf("%s: campaign never engaged the mitigation; equivalence is vacuous", kind.name)
		}
		for ch := 0; ch < topo.Channels; ch++ {
			a, b := serial.Controller(ch), sharded.Controller(ch)
			if a.Stats != b.Stats || a.Now() != b.Now() {
				t.Fatalf("%s: channel %d diverged:\nserial  %+v t=%d\nsharded %+v t=%d",
					kind.name, ch, a.Stats, a.Now(), b.Stats, b.Now())
			}
			for rk := 0; rk < topo.Ranks; rk++ {
				da, db := serial.Device(ch, rk), sharded.Device(ch, rk)
				if da.Stats != db.Stats {
					t.Fatalf("%s: ch%d/rk%d device stats diverged", kind.name, ch, rk)
				}
				for bk := 0; bk < topo.Geom.Banks; bk++ {
					for r := 0; r < topo.Geom.Rows; r++ {
						wa, wb := da.PhysRowWords(bk, r), db.PhysRowWords(bk, r)
						for col := range wa {
							if wa[col] != wb[col] {
								t.Fatalf("%s: ch%d/rk%d bank %d row %d col %d: %#x vs %#x",
									kind.name, ch, rk, bk, r, col, wa[col], wb[col])
							}
						}
					}
				}
			}
		}
	}
}

// TestShardedExecutionBitIdentical is the sharding equivalence proof:
// the same multi-channel hammer campaign run serially and with
// channels sharded across workers must leave bit-identical systems —
// cell contents, fault-model flips, controller stats and clocks.
func TestShardedExecutionBitIdentical(t *testing.T) {
	topo := dram.Topology{Channels: 4, Ranks: 2, Geom: dram.Geometry{Banks: 2, Rows: 64, Cols: 4}}
	for _, workers := range []int{2, 4, 8} {
		serial, serialDMs := newDisturbedSystem(topo, 99)
		sharded, shardedDMs := newDisturbedSystem(topo, 99)
		hammerAllChannels(serial, 1)
		hammerAllChannels(sharded, workers)
		var flips int64
		for i := range serialDMs {
			if a, b := serialDMs[i].TotalFlips(), shardedDMs[i].TotalFlips(); a != b {
				t.Fatalf("workers=%d: device %d flips %d vs %d", workers, i, a, b)
			}
			flips += serialDMs[i].TotalFlips()
		}
		if flips == 0 {
			t.Fatal("no flips; equivalence test is vacuous")
		}
		for ch := 0; ch < topo.Channels; ch++ {
			a, b := serial.Controller(ch), sharded.Controller(ch)
			if a.Stats != b.Stats || a.Now() != b.Now() {
				t.Fatalf("workers=%d: channel %d diverged:\nserial  %+v t=%d\nsharded %+v t=%d",
					workers, ch, a.Stats, a.Now(), b.Stats, b.Now())
			}
			for rk := 0; rk < topo.Ranks; rk++ {
				da, db := serial.Device(ch, rk), sharded.Device(ch, rk)
				if da.Stats != db.Stats {
					t.Fatalf("workers=%d: ch%d/rk%d device stats diverged", workers, ch, rk)
				}
				for b := 0; b < topo.Geom.Banks; b++ {
					for r := 0; r < topo.Geom.Rows; r++ {
						wa, wb := da.PhysRowWords(b, r), db.PhysRowWords(b, r)
						for c := range wa {
							if wa[c] != wb[c] {
								t.Fatalf("workers=%d: ch%d/rk%d bank %d row %d col %d: %#x vs %#x",
									workers, ch, rk, b, r, c, wa[c], wb[c])
							}
						}
					}
				}
			}
		}
	}
}
