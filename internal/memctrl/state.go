package memctrl

import (
	"math"
	"sort"

	"repro/internal/dram"
	"repro/internal/snapshot"
)

// StatefulMitigation is implemented by mitigations that carry mutable
// state across activations (counters, samplers, stream positions).
// Controller.SaveState serializes every attached mitigation that
// implements it; stateless mitigations (RefreshScaling) need nothing.
// LoadState restores into an already-constructed-and-attached
// mitigation of the same configuration — checkpoints never instantiate
// mitigations, they overlay them.
type StatefulMitigation interface {
	Mitigation
	SaveState(w *snapshot.Writer)
	LoadState(r *snapshot.Reader) error
}

var (
	_ StatefulMitigation = (*PARA)(nil)
	_ StatefulMitigation = (*CRA)(nil)
	_ StatefulMitigation = (*TRR)(nil)
	_ StatefulMitigation = (*ANVIL)(nil)
	_ StatefulMitigation = (*Graphene)(nil)
	_ StatefulMitigation = (*TWiCe)(nil)
	_ StatefulMitigation = (*MultiRateRefresh)(nil)
	_ StatefulMitigation = (*Scrubber)(nil)
)

// --- PARA ---

// SaveState implements StatefulMitigation: PARA's only mutable state
// is its random stream position.
func (p *PARA) SaveState(w *snapshot.Writer) {
	w.Tag("mit.PARA")
	p.src.SaveState(w)
}

// LoadState implements StatefulMitigation.
func (p *PARA) LoadState(r *snapshot.Reader) error {
	r.Tag("mit.PARA")
	return p.src.LoadState(r)
}

// --- CRA ---

// SaveState implements StatefulMitigation. Counter-map keys are
// written in sorted order so identical states serialize to identical
// bytes regardless of map iteration order.
func (m *CRA) SaveState(w *snapshot.Writer) {
	w.Tag("mit.CRA")
	w.I64(m.refs)
	w.I64(m.WindowREFs)
	keys := make([][2]int, 0, len(m.counters))
	for k := range m.counters {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	w.U64(uint64(len(keys)))
	for _, k := range keys {
		w.Int(k[0])
		w.Int(k[1])
		w.I64(m.counters[k])
	}
}

// LoadState implements StatefulMitigation.
func (m *CRA) LoadState(r *snapshot.Reader) error {
	r.Tag("mit.CRA")
	refs := r.I64()
	windowREFs := r.I64()
	n := r.Count(24) // bank, row, count
	if err := r.Err(); err != nil {
		return err
	}
	staged := make(map[[2]int]int64, n)
	for i := 0; i < n; i++ {
		k := [2]int{r.Int(), r.Int()}
		staged[k] = r.I64()
	}
	if err := r.Err(); err != nil {
		return err
	}
	m.refs = refs
	m.WindowREFs = windowREFs
	m.counters = staged
	return nil
}

// --- TRR ---

// SaveState implements StatefulMitigation.
func (m *TRR) SaveState(w *snapshot.Writer) {
	w.Tag("mit.TRR")
	w.Int(m.filled)
	w.Int(m.nextSlot)
	for i := 0; i < m.filled; i++ {
		w.Int(m.sampler[i][0])
		w.Int(m.sampler[i][1])
	}
	m.src.SaveState(w)
}

// LoadState implements StatefulMitigation.
func (m *TRR) LoadState(r *snapshot.Reader) error {
	r.Tag("mit.TRR")
	filled := r.Int()
	nextSlot := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if filled < 0 || filled > m.Entries || nextSlot < 0 || nextSlot >= m.Entries {
		return snapshot.Corruptf("TRR sampler fill %d/next %d out of range for %d entries",
			filled, nextSlot, m.Entries)
	}
	staged := make([][2]int, filled)
	for i := range staged {
		staged[i] = [2]int{r.Int(), r.Int()}
	}
	stagedSrc := *m.src
	if err := stagedSrc.LoadState(r); err != nil {
		return err
	}
	m.filled = filled
	m.nextSlot = nextSlot
	for i := range m.sampler {
		m.sampler[i] = [2]int{}
	}
	copy(m.sampler, staged)
	*m.src = stagedSrc
	return nil
}

// --- ANVIL ---

// SaveState implements StatefulMitigation. Flagged-row keys are
// written in sorted order for deterministic bytes.
func (m *ANVIL) SaveState(w *snapshot.Writer) {
	w.Tag("mit.ANVIL")
	w.I64(m.sampleCount)
	w.I64(m.Detections)
	w.U64(uint64(len(m.window)))
	for _, k := range m.window {
		w.Int(k.bank)
		w.Int(k.logRow)
	}
	keys := make([]rowKey, 0, len(m.flagged))
	for k := range m.flagged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].bank != keys[j].bank {
			return keys[i].bank < keys[j].bank
		}
		return keys[i].logRow < keys[j].logRow
	})
	w.U64(uint64(len(keys)))
	for _, k := range keys {
		w.Int(k.bank)
		w.Int(k.logRow)
	}
}

// LoadState implements StatefulMitigation.
func (m *ANVIL) LoadState(r *snapshot.Reader) error {
	r.Tag("mit.ANVIL")
	sampleCount := r.I64()
	detections := r.I64()
	wn := r.Count(16) // bank, row
	if err := r.Err(); err != nil {
		return err
	}
	window := make([]rowKey, 0, wn)
	for i := 0; i < wn; i++ {
		window = append(window, rowKey{bank: r.Int(), logRow: r.Int()})
	}
	fn := r.Count(16) // bank, row
	if err := r.Err(); err != nil {
		return err
	}
	flagged := make(map[rowKey]bool, fn)
	for i := 0; i < fn; i++ {
		flagged[rowKey{bank: r.Int(), logRow: r.Int()}] = true
	}
	if err := r.Err(); err != nil {
		return err
	}
	m.sampleCount = sampleCount
	m.Detections = detections
	m.window = window
	m.flagged = flagged
	return nil
}

// --- Graphene ---

// SaveState implements StatefulMitigation. Tables serialize their live
// slots in index order — the same order every scan walks them — so a
// restored tracker makes identical decisions.
func (m *Graphene) SaveState(w *snapshot.Writer) {
	w.Tag("mit.Graphene")
	w.I64(m.refs)
	w.I64(m.WindowREFs)
	w.U64(uint64(len(m.tables)))
	for i := range m.tables {
		tb := &m.tables[i]
		w.Int(tb.used)
		w.I64(tb.spill)
		for j := 0; j < tb.used; j++ {
			w.Int(tb.entries[j].row)
			w.I64(tb.entries[j].count)
			w.I64(tb.entries[j].next)
		}
	}
}

// LoadState implements StatefulMitigation.
func (m *Graphene) LoadState(r *snapshot.Reader) error {
	r.Tag("mit.Graphene")
	refs := r.I64()
	windowREFs := r.I64()
	nt := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if int(nt) != len(m.tables) {
		return snapshot.Mismatchf("Graphene has %d bank tables, checkpoint holds %d", len(m.tables), nt)
	}
	type tableState struct {
		used    int
		spill   int64
		entries []mgEntry
	}
	staged := make([]tableState, nt)
	for i := range staged {
		used := r.Int()
		spill := r.I64()
		if err := r.Err(); err != nil {
			return err
		}
		if used < 0 || used > m.Entries {
			return snapshot.Corruptf("Graphene table %d used %d out of range", i, used)
		}
		entries := make([]mgEntry, used)
		for j := range entries {
			entries[j] = mgEntry{row: r.Int(), count: r.I64(), next: r.I64()}
		}
		staged[i] = tableState{used: used, spill: spill, entries: entries}
	}
	if err := r.Err(); err != nil {
		return err
	}
	m.refs = refs
	m.WindowREFs = windowREFs
	for i := range m.tables {
		tb := &m.tables[i]
		tb.used = staged[i].used
		tb.spill = staged[i].spill
		for j := range tb.entries {
			tb.entries[j] = mgEntry{}
		}
		copy(tb.entries, staged[i].entries)
	}
	return nil
}

// --- TWiCe ---

// SaveState implements StatefulMitigation.
func (m *TWiCe) SaveState(w *snapshot.Writer) {
	w.Tag("mit.TWiCe")
	w.I64(m.refs)
	w.I64(m.WindowREFs)
	w.Int(m.peak)
	w.U64(uint64(len(m.tables)))
	for _, tb := range m.tables {
		w.U64(uint64(len(tb)))
		for _, e := range tb {
			w.Int(e.row)
			w.I64(e.count)
			w.I64(e.life)
		}
	}
}

// LoadState implements StatefulMitigation.
func (m *TWiCe) LoadState(r *snapshot.Reader) error {
	r.Tag("mit.TWiCe")
	refs := r.I64()
	windowREFs := r.I64()
	peak := r.Int()
	nt := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if int(nt) != len(m.tables) {
		return snapshot.Mismatchf("TWiCe has %d bank tables, checkpoint holds %d", len(m.tables), nt)
	}
	staged := make([][]twEntry, nt)
	for i := range staged {
		ne := r.Count(24) // row, count, life
		if err := r.Err(); err != nil {
			return err
		}
		tb := make([]twEntry, ne)
		for j := range tb {
			tb[j] = twEntry{row: r.Int(), count: r.I64(), life: r.I64()}
		}
		staged[i] = tb
	}
	if err := r.Err(); err != nil {
		return err
	}
	m.refs = refs
	m.WindowREFs = windowREFs
	m.peak = peak
	m.tables = staged
	return nil
}

// --- MultiRateRefresh ---

// SaveState implements StatefulMitigation. Plans are configuration
// (resolved at attach); only the sweep position and counters persist.
func (m *MultiRateRefresh) SaveState(w *snapshot.Writer) {
	w.Tag("mit.MultiRate")
	w.Int(m.ptr)
	w.I64(m.sweep)
	w.I64(m.RowRefreshes)
	w.I64(m.RowsSkipped)
}

// LoadState implements StatefulMitigation.
func (m *MultiRateRefresh) LoadState(r *snapshot.Reader) error {
	r.Tag("mit.MultiRate")
	ptr := r.Int()
	sweep := r.I64()
	rowRefreshes := r.I64()
	rowsSkipped := r.I64()
	if err := r.Err(); err != nil {
		return err
	}
	if m.rows > 0 && (ptr < 0 || ptr >= m.rows) {
		return snapshot.Corruptf("MultiRateRefresh group pointer %d out of range", ptr)
	}
	m.ptr = ptr
	m.sweep = sweep
	m.RowRefreshes = rowRefreshes
	m.RowsSkipped = rowsSkipped
	return nil
}

// --- Controller ---

// SaveState serializes the channel's full mutable state: clocks,
// refresh schedule, per-bank activation times, stats, every rank's
// device state, and every attached stateful mitigation (framed by its
// Name so a roster mismatch is detected on load).
func (c *Controller) SaveState(w *snapshot.Writer) {
	w.Tag("memctrl.Controller")
	w.U64(uint64(c.now))
	w.U64(uint64(c.nextRefDue))
	w.U64(uint64(c.refPeriod))
	w.F64(c.refMult)
	w.U64(uint64(len(c.lastAct)))
	for _, t := range c.lastAct {
		w.U64(uint64(t))
	}
	w.I64(c.Stats.Accesses)
	w.I64(c.Stats.RowHits)
	w.I64(c.Stats.RowMisses)
	w.I64(c.Stats.RowConflicts)
	w.I64(c.Stats.AutoRefreshes)
	w.I64(c.Stats.MitRefreshes)
	w.I64(c.Stats.ECCCorrected)
	w.I64(c.Stats.ECCDetected)
	w.I64(c.Stats.ECCSilent)
	w.U64(uint64(c.Stats.BusyTime))
	w.U64(uint64(c.Stats.RefreshTime))
	w.U64(uint64(c.Stats.MitTime))
	w.U64(uint64(len(c.ranks)))
	for _, dev := range c.ranks {
		dev.SaveState(w)
	}
	w.U64(uint64(len(c.mitigations)))
	for _, m := range c.mitigations {
		w.String(m.Name())
		if sm, ok := m.(StatefulMitigation); ok {
			w.Bool(true)
			sm.SaveState(w)
		} else {
			w.Bool(false)
		}
	}
	// The ECC shadow is present exactly when the configuration enables
	// ECC; the load target is built from the same configuration, so
	// presence needs no marker byte.
	if c.ecc != nil {
		c.ecc.SaveState(w)
	}
}

// LoadState restores state saved by SaveState into a controller built
// with the same configuration: same rank geometry and count, the same
// mitigation roster (matched by Name, in attach order), and so the same
// refresh period and multiplier, which the roster's RefreshScalings fix
// and LoadState only compares. Scalar controller fields are staged
// before any rank or mitigation is touched; a failure inside a rank or
// mitigation load reports an error without completing the overlay
// (callers rebuild from spec on error, so no partially-loaded state is
// ever used).
func (c *Controller) LoadState(r *snapshot.Reader) error {
	r.Tag("memctrl.Controller")
	now := dram.Time(r.U64())
	nextRefDue := dram.Time(r.U64())
	refPeriod := dram.Time(r.U64())
	refMult := r.F64()
	nla := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if refPeriod != c.refPeriod || math.Float64bits(refMult) != math.Float64bits(c.refMult) {
		return snapshot.Mismatchf("checkpoint refreshes every %d at multiplier %g, controller every %d at %g", refPeriod, refMult, c.refPeriod, c.refMult)
	}
	if int(nla) != len(c.lastAct) {
		return snapshot.Mismatchf("controller has %d flat banks, checkpoint holds %d", len(c.lastAct), nla)
	}
	lastAct := make([]dram.Time, nla)
	for i := range lastAct {
		lastAct[i] = dram.Time(r.U64())
	}
	var st Stats
	st.Accesses = r.I64()
	st.RowHits = r.I64()
	st.RowMisses = r.I64()
	st.RowConflicts = r.I64()
	st.AutoRefreshes = r.I64()
	st.MitRefreshes = r.I64()
	st.ECCCorrected = r.I64()
	st.ECCDetected = r.I64()
	st.ECCSilent = r.I64()
	st.BusyTime = dram.Time(r.U64())
	st.RefreshTime = dram.Time(r.U64())
	st.MitTime = dram.Time(r.U64())
	nr := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if int(nr) != len(c.ranks) {
		return snapshot.Mismatchf("controller drives %d ranks, checkpoint holds %d", len(c.ranks), nr)
	}
	// Commit scalars, then overlay ranks and mitigations. Callers treat
	// any error as fatal for the whole restore target.
	c.now = now
	c.nextRefDue = nextRefDue
	copy(c.lastAct, lastAct)
	c.Stats = st
	for _, dev := range c.ranks {
		if err := dev.LoadState(r); err != nil {
			return err
		}
	}
	nm := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if int(nm) != len(c.mitigations) {
		return snapshot.Mismatchf("controller has %d mitigations attached, checkpoint holds %d", len(c.mitigations), nm)
	}
	for _, m := range c.mitigations {
		name := r.String()
		hasState := r.Bool()
		if err := r.Err(); err != nil {
			return err
		}
		if name != m.Name() {
			return snapshot.Mismatchf("checkpoint mitigation %q, attached %q (roster must match attach order)", name, m.Name())
		}
		sm, ok := m.(StatefulMitigation)
		if hasState != ok {
			return snapshot.Mismatchf("mitigation %q statefulness disagrees with checkpoint", name)
		}
		if ok {
			if err := sm.LoadState(r); err != nil {
				return err
			}
		}
	}
	if c.ecc != nil {
		if err := c.ecc.LoadState(r); err != nil {
			return err
		}
	}
	return nil
}

// --- MemorySystem ---

// SaveState serializes every channel of the system. The topology is
// written first so LoadState can refuse a checkpoint from a different
// shape; the mapping policy itself is configuration.
func (ms *MemorySystem) SaveState(w *snapshot.Writer) {
	w.Tag("memctrl.MemorySystem")
	t := ms.Topology()
	w.Int(t.Channels)
	w.Int(t.Ranks)
	w.Int(t.Geom.Banks)
	w.Int(t.Geom.Rows)
	w.Int(t.Geom.Cols)
	w.String(ms.policy.Name())
	for _, c := range ms.chans {
		c.SaveState(w)
	}
}

// LoadState restores state saved by SaveState into a system of the
// same topology and mapping policy.
func (ms *MemorySystem) LoadState(r *snapshot.Reader) error {
	r.Tag("memctrl.MemorySystem")
	var t dram.Topology
	t.Channels = r.Int()
	t.Ranks = r.Int()
	t.Geom.Banks = r.Int()
	t.Geom.Rows = r.Int()
	t.Geom.Cols = r.Int()
	policy := r.String()
	if err := r.Err(); err != nil {
		return err
	}
	if t != ms.Topology() {
		return snapshot.Mismatchf("checkpoint topology %+v, have %+v", t, ms.Topology())
	}
	if policy != ms.policy.Name() {
		return snapshot.Mismatchf("checkpoint mapping policy %q, have %q", policy, ms.policy.Name())
	}
	for _, c := range ms.chans {
		if err := c.LoadState(r); err != nil {
			return err
		}
	}
	return nil
}
