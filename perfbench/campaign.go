package main

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/modules"
	"repro/internal/rng"
)

// hammerCampaign runs attack cells restored from one armed snapshot.
// Set-up builds a densified 2013-class module on a 2ch x 2rk topology,
// templates it for victim rows, stripes it and snapshots it; a second
// rig with SECDED is armed through the controller so its ECC shadow
// holds the stripes. Each cell clones a rig from a snapshot, attaches
// one defence and runs one strategy over the victims, one shard
// goroutine per channel. The defences cover the three regimes of the
// hammer path: batched (none, refresh-x2), per access because the
// fault model declines a densified pair, and per access because an
// observing mitigation or ECC is attached.
type hammerCampaign struct {
	seed uint64
	topo dram.Topology
	// templatePairs is the hammer budget per row of the templating
	// scan; rounds is each strategy's budget per victim and cell.
	templatePairs, rounds int
	victimsPerChannel     int

	mod     *modules.Module
	victims [][]memctrl.Loc // per channel
	plain   []byte          // armed snapshot, no ECC
	secded  []byte          // armed snapshot, SECDED
	cells   []campaignCell

	ids campaignIDs
}

type campaignCell struct{ defence, strategy string }

type campaignIDs struct {
	snap                                    snapIDs
	template, arm, bankRefresh, access      int
	shard, probe, hammer, observe, readback int
}

const campaignPattern = 0x5555555555555555

var campaignDefences = []string{"none", "refresh-x2", "para", "trr", "graphene", "twice", "anvil", "secded-scrub"}

var campaignStrategies = []string{"double", "nsided-4+2", "refsync"}

func newHammerCampaign(seed uint64, tiny bool) *hammerCampaign {
	w := &hammerCampaign{
		seed:              seed,
		topo:              dram.Topology{Channels: 2, Ranks: 2, Geom: dram.Geometry{Banks: 1, Rows: 128, Cols: 8}},
		templatePairs:     2500,
		rounds:            3000,
		victimsPerChannel: 4,
	}
	if tiny {
		w.topo.Geom.Rows = 32
		w.templatePairs = 1500
		w.rounds = 400
		w.victimsPerChannel = 1
	}
	for _, d := range campaignDefences {
		for _, s := range campaignStrategies {
			w.cells = append(w.cells, campaignCell{d, s})
		}
	}
	return w
}

func (w *hammerCampaign) channels() int { return w.topo.Channels }

func (w *hammerCampaign) setup(tr *tracer) error {
	if tr != nil {
		w.ids = campaignIDs{
			snap:        newSnapIDs(tr),
			template:    tr.id("attack.template"),
			arm:         tr.id("dram.arm"),
			bankRefresh: tr.id("dram.bank_refresh"),
			access:      tr.id("memctrl.access"),
			shard:       tr.id("memctrl.shard"),
			probe:       tr.id("attack.probe"),
			hammer:      tr.id("attack.hammer_round"),
			observe:     tr.id("attack.observe"),
			readback:    tr.id("dram.readback"),
		}
	}
	t := tr.main()
	mod, err := module2013(w.seed, 100)
	if err != nil {
		return err
	}
	w.mod = mod
	plain, err := buildRig(mod, w.topo, "row", memctrl.Config{}, tr)
	if err != nil {
		return err
	}
	// Template: the attacker's reconnaissance picks the victim rows
	// every cell aims at, the first few per channel in scan order.
	t.beginParallel(w.ids.template)
	templates := attack.ScanSystem(plain.ms, campaignPattern, w.templatePairs, shardWorkers())
	t.end()
	w.victims = make([][]memctrl.Loc, w.topo.Channels)
	seen := map[memctrl.Loc]bool{}
	for _, tm := range templates {
		v := tm.Victim
		v.Col = 0
		if seen[v] || len(w.victims[v.Channel]) == w.victimsPerChannel {
			continue
		}
		seen[v] = true
		w.victims[v.Channel] = append(w.victims[v.Channel], v)
	}
	for ch, vs := range w.victims {
		if len(vs) < w.victimsPerChannel {
			return fmt.Errorf("templating found %d victims on channel %d, want %d", len(vs), ch, w.victimsPerChannel)
		}
	}
	// Stripe: victims hold the pattern, every other row its inverse,
	// written straight into the cells; then one refresh sweep per bank
	// restores every row's charge.
	for ch := 0; ch < w.topo.Channels; ch++ {
		c := plain.ms.Controller(ch)
		for rk := 0; rk < w.topo.Ranks; rk++ {
			dev := c.Rank(rk)
			for b := 0; b < w.topo.Geom.Banks; b++ {
				for row := 0; row < w.topo.Geom.Rows; row++ {
					t.begin(w.ids.arm)
					dev.FillPhysRow(b, dev.PhysRow(row), w.stripe(ch, rk, b, row))
					t.end()
				}
				t.begin(w.ids.bankRefresh)
				dev.RefreshBankAll(b, c.Now())
				t.end()
			}
		}
	}
	w.plain = plain.save(t, w.ids.snap)
	// The SECDED rig is striped through the controller, so the ECC
	// layer encodes what the cells hold.
	ecc, err := buildRig(mod, w.topo, "row", memctrl.Config{ECC: memctrl.ECCConfig{Kind: memctrl.ECCSECDED72}}, tr)
	if err != nil {
		return err
	}
	for ch := 0; ch < w.topo.Channels; ch++ {
		for rk := 0; rk < w.topo.Ranks; rk++ {
			for b := 0; b < w.topo.Geom.Banks; b++ {
				for row := 0; row < w.topo.Geom.Rows; row++ {
					p := w.stripe(ch, rk, b, row)
					for col := 0; col < w.topo.Geom.Cols; col++ {
						t.begin(w.ids.access)
						ecc.ms.AccessLoc(memctrl.Loc{Channel: ch, Rank: rk, Bank: b, Row: row, Col: col}, true, p)
						t.end()
					}
				}
			}
		}
	}
	w.secded = ecc.save(t, w.ids.snap)
	return nil
}

// stripe is the pattern a row holds after arming.
func (w *hammerCampaign) stripe(ch, rk, bank, row int) uint64 {
	for _, v := range w.victims[ch] {
		if v.Rank == rk && v.Bank == bank && v.Row == row {
			return campaignPattern
		}
	}
	return ^uint64(campaignPattern)
}

func (w *hammerCampaign) pass(tr *tracer, ops *opTimer) (passResult, error) {
	res := passResult{layer: map[string]float64{}}
	pd := newDigest()
	for i, cell := range w.cells {
		ops.begin()
		cd, err := w.runCell(tr, i, cell, res.layer)
		ops.end(err)
		if err != nil {
			return res, fmt.Errorf("cell %s/%s: %w", cell.defence, cell.strategy, err)
		}
		pd.str(cd)
	}
	res.digest = pd.hex()
	return res, nil
}

// runCell clones a rig, attaches the cell's defence and runs its
// strategy over every victim, returning the cell's digest.
func (w *hammerCampaign) runCell(tr *tracer, idx int, cell campaignCell, layer map[string]float64) (digestHex string, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	t := tr.main()
	cfg, snap := memctrl.Config{}, w.plain
	if cell.defence == "secded-scrub" {
		cfg, snap = memctrl.Config{ECC: memctrl.ECCConfig{Kind: memctrl.ECCSECDED72}}, w.secded
	}
	r, err := buildRig(w.mod, w.topo, "row", cfg, tr)
	if err != nil {
		return "", err
	}
	if err := r.load(t, w.ids.snap.load, snap); err != nil {
		return "", fmt.Errorf("restore: %w", err)
	}
	scrubbers := w.attach(tr, r.ms, cell.defence, uint64(idx))
	flips := make([][]int, w.topo.Channels)
	readback := make([]*digest, w.topo.Channels)
	panics := make([]any, w.topo.Channels)
	t.beginParallel(w.ids.shard)
	r.ms.ShardChannels(shardWorkers(), func(ch int, c *memctrl.Controller) {
		// A panic on a shard goroutine would end the process; report it
		// as the cell's error instead.
		defer func() { panics[ch] = recover() }()
		ct := tr.channel(ch)
		strat := newCampaignStrategy(cell.strategy)
		ct.begin(w.ids.probe)
		strat.Probe(attack.Target{Ctrl: c, Pattern: campaignPattern})
		ct.end()
		d := newDigest()
		for _, v := range w.victims[ch] {
			tgt := attack.Target{Ctrl: c, Rank: v.Rank, Bank: v.Bank, Pattern: campaignPattern}
			ct.begin(w.ids.hammer)
			strat.HammerRound(tgt, v.Row, w.rounds)
			ct.end()
			ct.begin(w.ids.observe)
			flips[ch] = append(flips[ch], strat.Observe(tgt, v.Row))
			ct.end()
			dev := c.Rank(v.Rank)
			ct.begin(w.ids.readback)
			d.words(dev.PhysRowWords(v.Bank, dev.PhysRow(v.Row)))
			ct.end()
		}
		readback[ch] = d
	})
	t.end()
	for ch, p := range panics {
		if p != nil {
			return "", fmt.Errorf("channel %d panicked: %v", ch, p)
		}
	}
	cd := newDigest()
	cd.str(cell.defence)
	cd.str(cell.strategy)
	for ch := range flips {
		for _, f := range flips[ch] {
			cd.ints(int64(f))
		}
		cd.str(readback[ch].hex())
	}
	tot := r.totals()
	tot.fold(cd)
	tot.record(layer)
	for _, s := range scrubbers {
		cd.ints(s.WordsScanned, s.Repairs)
		layer["ecc.scrub.words"] += float64(s.WordsScanned)
		layer["ecc.scrub.repairs"] += float64(s.Repairs)
	}
	return cd.hex(), nil
}

// attach adds the defence to every channel: observing mitigations
// behind tracing wrappers when traced, passive ones as they are.
func (w *hammerCampaign) attach(tr *tracer, ms *memctrl.MemorySystem, defence string, cell uint64) []*memctrl.Scrubber {
	flatBanks := w.topo.Ranks * w.topo.Geom.Banks
	var scrubbers []*memctrl.Scrubber
	for ch := 0; ch < ms.Channels(); ch++ {
		src := rng.New(w.seed ^ (cell+1)<<8 ^ uint64(ch))
		var m memctrl.StatefulMitigation
		c := ms.Controller(ch)
		switch defence {
		case "none":
			continue
		case "refresh-x2":
			c.Attach(memctrl.NewRefreshScaling(2))
			continue
		case "secded-scrub":
			s := memctrl.NewScrubber(8)
			c.Attach(s)
			scrubbers = append(scrubbers, s)
			continue
		case "para":
			m = memctrl.NewPARA(0.01, memctrl.InDRAM, nil, src)
		case "trr":
			m = memctrl.NewTRR(4, 0.05, src)
		case "graphene":
			m = memctrl.NewGraphene(8, 1000, flatBanks)
		case "twice":
			m = memctrl.NewTWiCe(1000, flatBanks)
		case "anvil":
			m = memctrl.NewANVIL()
		default:
			panic("perfbench: unknown defence " + defence)
		}
		if tr != nil {
			m = newTracedMitigation(tr, defence, m, ch)
		}
		c.Attach(m)
	}
	return scrubbers
}

func newCampaignStrategy(name string) attack.Strategy {
	switch name {
	case "double":
		return &attack.DoubleSidedStrategy{}
	case "nsided-4+2":
		return &attack.NSidedDecoyStrategy{Sides: 4, Decoys: 2}
	case "refsync":
		return &attack.RefreshSyncStrategy{Sides: 2}
	}
	panic("perfbench: unknown strategy " + name)
}
