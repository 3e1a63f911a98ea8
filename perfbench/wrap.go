package main

import (
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/snapshot"
)

// faultModel is what both of the simulator's fault models implement:
// the per-activation hooks plus the batched hammer and bank-refresh
// extensions the device type-asserts for.
type faultModel interface {
	dram.HammerFaultModel
	dram.BankRefreshFaultModel
}

// tracedFault forwards every dram.FaultModel hook, including the
// HammerFaultModel and BankRefreshFaultModel extensions, to a fault
// model and records a span per hook on its device's channel track. It
// answers the batching questions exactly as the model does, so the
// device picks the batched or the per-activation path exactly as it
// does without the wrapper.
type tracedFault struct {
	inner faultModel
	t     *track

	onActivate, onRefresh, rowBatch, pairBatch, bankRefresh int
	rowActs, pairActs, batchablePair, pairDeclines          int
}

func newTracedFault(tr *tracer, layer string, inner faultModel, ch int) *tracedFault {
	return &tracedFault{
		inner:         inner,
		t:             tr.channel(ch),
		onActivate:    tr.id(layer + ".on_activate"),
		onRefresh:     tr.id(layer + ".on_refresh"),
		rowBatch:      tr.id(layer + ".row_batch"),
		pairBatch:     tr.id(layer + ".pair_batch"),
		bankRefresh:   tr.id(layer + ".bank_refresh"),
		rowActs:       tr.counter(layer + ".row_batch.acts"),
		pairActs:      tr.counter(layer + ".pair_batch.acts"),
		batchablePair: tr.counter(layer + ".batchable_pair.calls"),
		pairDeclines:  tr.counter(layer + ".batchable_pair.declines"),
	}
}

func (f *tracedFault) Name() string { return f.inner.Name() }

func (f *tracedFault) OnActivate(d *dram.Device, bank, physRow int, now dram.Time) {
	f.t.begin(f.onActivate)
	f.inner.OnActivate(d, bank, physRow, now)
	f.t.end()
}

func (f *tracedFault) OnRefresh(d *dram.Device, bank, physRow int, now dram.Time) {
	f.t.begin(f.onRefresh)
	f.inner.OnRefresh(d, bank, physRow, now)
	f.t.end()
}

func (f *tracedFault) BatchableRow(bank, physRow int) bool {
	return f.inner.BatchableRow(bank, physRow)
}

func (f *tracedFault) OnActivateBatch(d *dram.Device, bank, physRow, n int, start, period dram.Time) {
	f.t.begin(f.rowBatch)
	f.inner.OnActivateBatch(d, bank, physRow, n, start, period)
	f.t.end()
	f.t.add(f.rowActs, int64(n))
}

func (f *tracedFault) BatchablePair(bank, rowA, rowB int) bool {
	ok := f.inner.BatchablePair(bank, rowA, rowB)
	f.t.add(f.batchablePair, 1)
	if !ok {
		f.t.add(f.pairDeclines, 1)
	}
	return ok
}

func (f *tracedFault) OnHammerPairBatch(d *dram.Device, bank, rowA, rowB, n int, start, period dram.Time) {
	f.t.begin(f.pairBatch)
	f.inner.OnHammerPairBatch(d, bank, rowA, rowB, n, start, period)
	f.t.end()
	f.t.add(f.pairActs, int64(2*n))
}

func (f *tracedFault) BatchableBankRefresh(bank int) bool {
	return f.inner.BatchableBankRefresh(bank)
}

func (f *tracedFault) OnRefreshBankBatch(d *dram.Device, bank int, now dram.Time) {
	f.t.begin(f.bankRefresh)
	f.inner.OnRefreshBankBatch(d, bank, now)
	f.t.end()
}

// tracedMitigation forwards an observing mitigation's hooks, its Name
// and its snapshot state, recording a span per hook and the rows the
// mitigation refreshed inside it. Passive mitigations (RefreshScaling,
// Scrubber) are never wrapped: the controller recognises them by type.
type tracedMitigation struct {
	inner memctrl.StatefulMitigation
	t     *track

	onActivate, onRefresh, refreshes int
}

func newTracedMitigation(tr *tracer, key string, inner memctrl.StatefulMitigation, ch int) *tracedMitigation {
	prefix := "memctrl.mit." + key
	return &tracedMitigation{
		inner:      inner,
		t:          tr.channel(ch),
		onActivate: tr.id(prefix + ".on_activate"),
		onRefresh:  tr.id(prefix + ".on_refresh"),
		refreshes:  tr.counter(prefix + ".refreshes"),
	}
}

func (m *tracedMitigation) Name() string { return m.inner.Name() }

func (m *tracedMitigation) OnActivate(c *memctrl.Controller, bank, logRow int) {
	before := c.Stats.MitRefreshes
	m.t.begin(m.onActivate)
	m.inner.OnActivate(c, bank, logRow)
	m.t.end()
	m.t.add(m.refreshes, c.Stats.MitRefreshes-before)
}

func (m *tracedMitigation) OnAutoRefresh(c *memctrl.Controller) {
	before := c.Stats.MitRefreshes
	m.t.begin(m.onRefresh)
	m.inner.OnAutoRefresh(c)
	m.t.end()
	m.t.add(m.refreshes, c.Stats.MitRefreshes-before)
}

func (m *tracedMitigation) StorageBits() int64 { return m.inner.StorageBits() }

func (m *tracedMitigation) SaveState(w *snapshot.Writer) { m.inner.SaveState(w) }

func (m *tracedMitigation) LoadState(r *snapshot.Reader) error { return m.inner.LoadState(r) }
