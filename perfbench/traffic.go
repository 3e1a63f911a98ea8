package main

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/rng"
	"repro/internal/workload"
)

// trafficMixed drives benign traffic, with no hammering, through a
// 4ch x 2rk xor-mapped SECDED system with refresh on, a patrol
// scrubber per channel, and the retention and disturbance models of a
// 2013-class module at its real hammer thresholds. The benchmark draws
// a Zipf-rows + random + sequential mix (about 30% writes) in
// fixed-size batches, then sends each batch access by access through
// MemorySystem.Access. An op is one batch. A pass restores the
// set-up snapshot and replays the same stream.
type trafficMixed struct {
	seed                  uint64
	topo                  dram.Topology
	batch, batchesPerPass int

	rig       *rig
	scrubbers []*memctrl.Scrubber
	snap      []byte
	buf       []workload.FlatAccess

	ids trafficIDs
}

type trafficIDs struct {
	snap         snapIDs
	next, access int
}

func newTrafficMixed(seed uint64, tiny bool) *trafficMixed {
	w := &trafficMixed{
		seed:           seed,
		topo:           dram.Topology{Channels: 4, Ranks: 2, Geom: dram.Geometry{Banks: 4, Rows: 256, Cols: 16}},
		batch:          4096,
		batchesPerPass: 64,
	}
	if tiny {
		w.topo.Geom.Rows = 64
		w.batch = 512
		w.batchesPerPass = 4
	}
	return w
}

func (w *trafficMixed) channels() int { return w.topo.Channels }

func (w *trafficMixed) setup(tr *tracer) error {
	if tr != nil {
		w.ids = trafficIDs{snap: newSnapIDs(tr), next: tr.id("workload.next"), access: tr.id("memctrl.access")}
	}
	mod, err := module2013(w.seed, 1)
	if err != nil {
		return err
	}
	r, err := buildRig(mod, w.topo, "xor", memctrl.Config{ECC: memctrl.ECCConfig{Kind: memctrl.ECCSECDED72}}, tr)
	if err != nil {
		return err
	}
	w.scrubbers = w.scrubbers[:0]
	for ch := 0; ch < w.topo.Channels; ch++ {
		s := memctrl.NewScrubber(16)
		r.ms.Controller(ch).Attach(s)
		w.scrubbers = append(w.scrubbers, s)
	}
	w.rig = r
	w.snap = r.save(tr.main(), w.ids.snap)
	w.buf = make([]workload.FlatAccess, w.batch)
	return nil
}

// mix is the pass's request stream; every pass draws the same one.
func (w *trafficMixed) mix() workload.FlatGenerator {
	p := w.rig.ms.Policy()
	src := rng.New(w.seed ^ 0x7eaff1c)
	gens := []workload.FlatGenerator{
		workload.NewFlatZipfRows(p, 1.1, src.Split()),
		workload.NewFlatRandom(p, 0.75, src.Split()),
		workload.NewFlatSequential(p),
	}
	return workload.NewFlatMix("traffic-mixed", src.Split(), gens, []float64{0.4, 0.4, 0.2})
}

func (w *trafficMixed) pass(tr *tracer, ops *opTimer) (res passResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	res.layer = map[string]float64{}
	t := tr.main()
	if err := w.rig.load(t, w.ids.snap.load, w.snap); err != nil {
		return res, fmt.Errorf("restore: %w", err)
	}
	gen := w.mix()
	ms := w.rig.ms
	pd := newDigest()
	for b := 0; b < w.batchesPerPass; b++ {
		ops.begin()
		for i := range w.buf {
			t.begin(w.ids.next)
			w.buf[i] = gen.NextFlat()
			t.end()
		}
		// Reads fold what they return into the batch's digest: a
		// multiply-xor chain is cheap enough to run per access.
		h := uint64(b) + 1
		for _, a := range w.buf {
			t.begin(w.ids.access)
			v, lat := ms.Access(a.Addr, a.Write, a.Data)
			t.end()
			h = (h^v)*0x100000001b3 ^ uint64(lat)
		}
		ops.end(nil)
		bd := fmt.Sprintf("%016x", h)
		pd.str(bd)
	}
	tot := w.rig.totals()
	tot.fold(pd)
	tot.record(res.layer)
	for _, s := range w.scrubbers {
		pd.ints(s.WordsScanned, s.Repairs)
		res.layer["ecc.scrub.words"] += float64(s.WordsScanned)
		res.layer["ecc.scrub.repairs"] += float64(s.Repairs)
	}
	res.digest = pd.hex()
	return res, nil
}
