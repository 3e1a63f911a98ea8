package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/modules"
	"repro/internal/retention"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// module2013 returns the seed's first vulnerable 2013-class module,
// densified with the given threshold divisor. The weak-cell fraction
// is raised to the 2e-3 cap, which every 2013 module reaches, so rigs
// of different seeds hold equally many weak cells and cost about the
// same to simulate.
func module2013(seed uint64, thresholdDiv float64) (*modules.Module, error) {
	pop := modules.Population(seed)
	for i := range pop {
		if pop[i].Year == 2013 && pop[i].Vulnerable() {
			m := pop[i].ScaleForSmallArray(thresholdDiv, 30, 2e-3)
			return &m, nil
		}
	}
	return nil, fmt.Errorf("no vulnerable 2013 module at seed %d", seed)
}

// rig is one memory system built from a module's physics, with the
// fault models kept so their state can be snapshotted beside it.
type rig struct {
	ms  *memctrl.MemorySystem
	dms []*disturb.Model
	rms []*retention.Model
}

// buildRig builds every device the way modules.Module.DeviceN does
// (same seed stepping and stream splits, no remap), so the physics are
// the module's. With a tracer, the fault models are attached behind
// forwarding wrappers that record spans on the device's channel track.
func buildRig(m *modules.Module, topo dram.Topology, mapping string, cfg memctrl.Config, tr *tracer) (*rig, error) {
	policy, err := memctrl.PolicyByName(mapping, topo)
	if err != nil {
		return nil, err
	}
	r := &rig{}
	devs := make([][]*dram.Device, topo.Channels)
	for ch := range devs {
		for rk := 0; rk < topo.Ranks; rk++ {
			sub := ch*topo.Ranks + rk
			seed := m.Seed
			if sub > 0 {
				seed = m.Seed + 0x9e3779b97f4a7c15*uint64(sub)
			}
			src := rng.New(seed)
			dev := dram.NewDevice(topo.Geom)
			dm := disturb.NewModel(topo.Geom, m.Vuln, src.Split())
			rm := retention.NewModel(topo.Geom, m.Ret, src.Split())
			if tr != nil {
				dev.AttachFault(newTracedFault(tr, "disturb", dm, ch))
				dev.AttachFault(newTracedFault(tr, "retention", rm, ch))
			} else {
				dev.AttachFault(dm)
				dev.AttachFault(rm)
			}
			devs[ch] = append(devs[ch], dev)
			r.dms = append(r.dms, dm)
			r.rms = append(r.rms, rm)
		}
	}
	r.ms = memctrl.NewSystem(devs, policy, cfg)
	return r, nil
}

// snapIDs names the snapshot layer's spans and its byte counter.
type snapIDs struct{ save, load, bytes int }

func newSnapIDs(tr *tracer) snapIDs {
	return snapIDs{save: tr.id("snapshot.save"), load: tr.id("snapshot.load"), bytes: tr.counter("snapshot.save.bytes")}
}

// save snapshots the memory system and every fault model. The fault
// models carry hammer pressure and retention state that the memory
// system's own snapshot leaves to its owner.
func (r *rig) save(t *track, ids snapIDs) []byte {
	t.begin(ids.save)
	var w snapshot.Writer
	r.ms.SaveState(&w)
	for i := range r.dms {
		r.dms[i].SaveState(&w)
		r.rms[i].SaveState(&w)
	}
	t.end()
	t.add(ids.bytes, int64(len(w.Bytes())))
	return w.Bytes()
}

// load overlays a snapshot taken by save on a rig built from the same
// spec with the same mitigations attached.
func (r *rig) load(t *track, id int, snap []byte) error {
	t.begin(id)
	defer t.end()
	rd := snapshot.NewReader(snap)
	if err := r.ms.LoadState(rd); err != nil {
		return err
	}
	for i := range r.dms {
		if err := r.dms[i].LoadState(rd); err != nil {
			return err
		}
		if err := r.rms[i].LoadState(rd); err != nil {
			return err
		}
	}
	if n := rd.Remaining(); n != 0 {
		return fmt.Errorf("snapshot has %d trailing bytes", n)
	}
	return nil
}

// simTotals are the simulated outputs of a rig, summed over channels
// and devices. They repeat exactly for a given seed and input.
type simTotals struct {
	ctl    memctrl.Stats
	dev    dram.Stats
	flips  int64
	decays int64
	now    []dram.Time
}

func (r *rig) totals() simTotals {
	s := simTotals{ctl: r.ms.AggregateStats(), dev: r.ms.AggregateDeviceStats()}
	for i := range r.dms {
		s.flips += r.dms[i].TotalFlips()
		s.decays += r.rms[i].Decays()
	}
	for ch := 0; ch < r.ms.Channels(); ch++ {
		s.now = append(s.now, r.ms.Controller(ch).Now())
	}
	return s
}

// fold adds the totals to a digest.
func (s simTotals) fold(d *digest) {
	c := s.ctl
	d.ints(c.Accesses, c.RowHits, c.RowMisses, c.RowConflicts, c.AutoRefreshes, c.MitRefreshes,
		c.ECCCorrected, c.ECCDetected, c.ECCSilent,
		int64(c.BusyTime), int64(c.RefreshTime), int64(c.MitTime))
	v := s.dev
	d.ints(v.Activates, v.Precharges, v.Reads, v.Writes, v.RowRefreshes, int64(v.OpEnergyPJ))
	d.ints(s.flips, s.decays)
	for _, t := range s.now {
		d.ints(int64(t))
	}
}

// record adds the totals to the pass's simulated per-layer counts.
func (s simTotals) record(sim map[string]float64) {
	c, v := s.ctl, s.dev
	for name, x := range map[string]int64{
		"memctrl.accesses":       c.Accesses,
		"memctrl.row_hits":       c.RowHits,
		"memctrl.row_misses":     c.RowMisses,
		"memctrl.row_conflicts":  c.RowConflicts,
		"memctrl.auto_refreshes": c.AutoRefreshes,
		"memctrl.mit_refreshes":  c.MitRefreshes,
		"memctrl.busy_ns":        int64(c.BusyTime),
		"memctrl.refresh_ns":     int64(c.RefreshTime),
		"memctrl.mit_ns":         int64(c.MitTime),
		"ecc.corrected":          c.ECCCorrected,
		"ecc.detected":           c.ECCDetected,
		"ecc.silent":             c.ECCSilent,
		"dram.activates":         v.Activates,
		"dram.precharges":        v.Precharges,
		"dram.reads":             v.Reads,
		"dram.writes":            v.Writes,
		"dram.row_refreshes":     v.RowRefreshes,
		"disturb.flips":          s.flips,
		"retention.decays":       s.decays,
	} {
		sim[name] += float64(x)
	}
}

// digest folds simulated outputs into a SHA-256.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) ints(xs ...int64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		d.h.Write(b[:])
	}
}

func (d *digest) words(ws []uint64) {
	var b [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(b[:], w)
		d.h.Write(b[:])
	}
}

func (d *digest) str(s string) {
	d.ints(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) hex() string { return hex.EncodeToString(d.h.Sum(nil)) }
