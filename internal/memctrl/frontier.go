package memctrl

// The second-generation mitigation frontier: the trackers the arms
// race produced after the paper's survey, modelled against the same
// Mitigation interface so the security-vs-overhead sweeps (E40-E44)
// can put first- and second-generation defences on one Pareto chart.
//
//   - Graphene: a Misra-Gries top-k aggressor tracker (ISCA 2020
//     style). Counting is deterministic and its frequency estimates
//     never undercount, so — unlike TRR's probabilistic sampler — it
//     cannot be starved by many-sided patterns; the attacker can only
//     drive its refresh overhead up.
//   - TWiCe: a pruned counter table (ISCA 2019 style). It keeps exact
//     per-aggressor counts like CRA but prunes rows that are not on
//     pace to reach the trigger before the window ends, shrinking the
//     table from every-row to only-plausibly-hot rows.
//   - RefreshScaling: the paper's "increase the refresh rate"
//     immediate solution, expressed as an attachable Mitigation so the
//     sweeps treat it as one more point on the frontier (and the only
//     way to change the controller's refresh rate). It keeps no
//     state and observes nothing; attaching it multiplies the
//     controller's REF rate.
//
// All three are deterministic (no RNG) and per-channel: attaching one
// instance per channel keeps channel-sharded execution bit-identical
// to serial execution (TestMitigatedShardedExecutionBitIdentical).

import (
	"fmt"
	"slices"
)

// mitAddrBits is the row-address width charged per tracked entry in
// storage estimates, matching TRR's 32-bit bank+row entries.
const mitAddrBits = 32

// Graphene implements a Misra-Gries top-k aggressor tracker per flat
// bank: Entries counters plus one spillover counter. A tracked
// aggressor's counter is an overestimate of its true activation count
// by at most the spillover value, so when a counter reaches
// ceil(Threshold/2) the neighbourhood is refreshed — the tracker can
// miss no aggressor that could have reached the trigger, which is
// exactly the guarantee TRR's sampler lacks.
type Graphene struct {
	// Entries is the number of counter slots per flat bank.
	Entries int
	// Threshold is the device's minimum hammer count; a tracked row's
	// neighbours are refreshed when its estimate reaches
	// ceil(Threshold/2).
	Threshold int64 `snapshot:"config"`
	// CounterBits sizes each counter for the storage estimate.
	CounterBits int `snapshot:"config"`
	// WindowREFs resets the tables once per window (counts cannot span
	// a retention window); zero derives it from the controller's
	// refresh config like CRA does.
	WindowREFs int64

	tables []mgTable
	refs   int64
	// dry is the last horizon's working set and dry run. The dry run
	// is a pure function of the table it started from, so it is never
	// saved; a stale one simply fails to match.
	dry mgDryRun `snapshot:"derived"`
}

// mgEntry is one Misra-Gries slot: a tracked physical row, its
// estimated activation count, and the next count at which the row's
// neighbourhood is refreshed again.
type mgEntry struct {
	row   int
	count int64
	next  int64
}

type mgTable struct {
	entries []mgEntry
	used    int
	spill   int64
}

// mgDryRun is the working set of the last horizon: the cycle's
// logical rows at position pos of bank flat, their physical rows and
// their slots in the bank's table (-1 when untracked), resolved once.
// When ran is set it also holds a dry run: from table `from`, n
// activations leave table `to`. Every slice and table is reused across
// calls.
type mgDryRun struct {
	rows, phys, slot []int
	untracked        int
	flat, pos        int
	ran              bool
	n                int
	from, to         mgTable
}

// NewGraphene builds per-bank Misra-Gries tables. banks is the flat
// rank*Banks+bank count of the channel the mitigation will observe.
// A tracker with no entries sends every activation to the spillover
// and never refreshes.
func NewGraphene(entries int, threshold int64, banks int) *Graphene {
	g := &Graphene{Entries: entries, Threshold: threshold, CounterBits: 20,
		tables: make([]mgTable, banks)}
	for b := range g.tables {
		g.tables[b].entries = make([]mgEntry, max(entries, 0))
	}
	return g
}

// Name implements Mitigation.
func (m *Graphene) Name() string { return "Graphene(top-k)" }

// OnActivate implements Mitigation: the Misra-Gries update, then a
// refresh if the row's tracked estimate reached its trigger.
func (m *Graphene) OnActivate(c *Controller, bank, logRow int) {
	tb := &m.tables[bank]
	if i := m.observe(tb, c.PhysRowAt(bank, logRow)); i >= 0 {
		m.fire(c, bank, tb, i)
	}
}

// observe applies one activation of physical row phys to a table: the
// Misra-Gries update with spillover exchange. It returns the slot that
// tracks the row afterwards, or -1 when the activation only raised the
// spillover. Only a slot whose count it raised can have reached its
// trigger: a new entry is armed above its count. All scans walk slots
// in index order, so the tracker is deterministic.
func (m *Graphene) observe(tb *mgTable, phys int) int {
	if i := tb.find(phys); i >= 0 {
		tb.entries[i].count++
		return i
	}
	if tb.used < len(tb.entries) {
		tb.entries[tb.used] = m.newEntry(phys, tb.spill+1)
		tb.used++
		return tb.used - 1
	}
	// Table full: the untracked activation raises the spillover; once
	// the spillover reaches the smallest tracked count, the new row is
	// at least as hot as that entry, so they exchange places. Insertion
	// never fires a refresh: newEntry arms the trigger strictly above
	// the inherited estimate, whose refreshes the evicted row already
	// spent.
	tb.spill++
	if tb.used == 0 {
		return -1
	}
	min := 0
	for i := 1; i < tb.used; i++ {
		if tb.entries[i].count < tb.entries[min].count {
			min = i
		}
	}
	if tb.spill < tb.entries[min].count {
		return -1
	}
	evicted := tb.entries[min].count
	tb.entries[min] = m.newEntry(phys, tb.spill+1)
	tb.spill = evicted
	return min
}

// find returns the slot tracking physical row phys, or -1.
func (tb *mgTable) find(phys int) int {
	for i := 0; i < tb.used; i++ {
		if tb.entries[i].row == phys {
			return i
		}
	}
	return -1
}

// copyFrom makes tb a copy of src's live slots, reusing tb's storage.
func (tb *mgTable) copyFrom(src *mgTable) {
	if len(tb.entries) < src.used {
		tb.entries = make([]mgEntry, len(src.entries))
	}
	copy(tb.entries, src.entries[:src.used])
	tb.used, tb.spill = src.used, src.spill
}

// equal reports whether two tables hold the same live slots and
// spillover.
func (tb *mgTable) equal(o *mgTable) bool {
	return tb.used == o.used && tb.spill == o.spill &&
		slices.Equal(tb.entries[:tb.used], o.entries[:o.used])
}

// ActivateHorizon implements HorizonMitigation: an activation is quiet
// unless it raises a tracked count to its next trigger; insertions and
// exchanges are quiet too. While no insertion or exchange can happen,
// a tracked row's activations are quiet until its estimate reaches its
// next trigger and the horizon is closed form. Otherwise the stretch is
// dry-run on a scratch copy of the table up to the first activation
// that fires, and the run is kept for OnActivateCycle.
func (m *Graphene) ActivateHorizon(c *Controller, flat int, rows []int, pos, max int) int {
	tb := &m.tables[flat]
	d := &m.dry
	d.load(c, tb, flat, rows, pos)
	h := d.fireHorizon(tb, pos, max)
	if h == 0 || d.untracked == 0 {
		return h
	}
	steady := d.churnFree(tb, pos, max)
	if steady >= h {
		return h
	}
	d.from.copyFrom(tb)
	d.to.copyFrom(tb)
	d.ran, d.n = true, m.replay(&d.to, pos, steady, max)
	return d.n
}

// OnActivateCycle implements HorizonMitigation. The stretch the last
// horizon dry-ran takes the table that run left; a stretch of rows the
// horizon found all tracked, and still tracked in the same slots, adds
// their hits in closed form; any other stretch is resolved afresh and
// replayed on the table.
func (m *Graphene) OnActivateCycle(c *Controller, flat int, rows []int, pos, n int) {
	tb := &m.tables[flat]
	d := &m.dry
	same := d.flat == flat && slices.Equal(d.rows, rows)
	switch {
	case same && d.ran && d.pos == pos && d.n == n && tb.equal(&d.from):
		tb.copyFrom(&d.to)
	case same && d.untracked == 0 && d.holds(tb):
		d.bulk(tb, pos, n)
	default:
		d.load(c, tb, flat, rows, pos)
		steady := n
		if d.untracked > 0 {
			steady = d.churnFree(tb, pos, n)
		}
		m.replay(tb, pos, steady, n)
	}
}

// replay applies up to max activations of the cycle from pos to tb,
// the first steady ones (which can neither insert nor exchange) in
// closed form and the rest one by one, keeping the slots load found
// current, until every cycle row is tracked: from there on the rest is
// closed form again. It stops before the first activation that fires
// and returns how many it applied.
func (m *Graphene) replay(tb *mgTable, pos, steady, max int) int {
	d := &m.dry
	d.bulk(tb, pos, steady)
	k := len(d.phys)
	n, idx := steady, (pos+steady)%k
	for ; n < max; n++ {
		if d.untracked == 0 {
			h := d.fireHorizon(tb, idx, max-n)
			d.bulk(tb, idx, h)
			return n + h
		}
		i := m.observe(tb, d.phys[idx])
		if i >= 0 && tb.entries[i].count >= tb.entries[i].next {
			tb.entries[i].count-- // the firing activation is not applied
			break
		}
		if i >= 0 && d.slot[idx] < 0 {
			// Inserted, or exchanged in for whichever cycle row held
			// the slot.
			for j := range d.slot {
				if d.slot[j] == i {
					d.slot[j] = -1
					d.untracked++
				}
			}
			d.slot[idx] = i
			d.untracked--
		}
		if idx++; idx == k {
			idx = 0
		}
	}
	return n
}

// load resolves the cycle's physical rows and finds their slots in tb,
// dropping any dry run.
func (d *mgDryRun) load(c *Controller, tb *mgTable, flat int, rows []int, pos int) {
	k := len(rows)
	if cap(d.rows) < k {
		d.rows, d.phys, d.slot = make([]int, k), make([]int, k), make([]int, k)
	}
	d.rows, d.phys, d.slot = d.rows[:k], d.phys[:k], d.slot[:k]
	d.untracked, d.flat, d.pos, d.ran = 0, flat, pos, false
	for idx, row := range rows {
		p := c.PhysRowAt(flat, row)
		i := tb.find(p)
		d.rows[idx], d.phys[idx], d.slot[idx] = row, p, i
		if i < 0 {
			d.untracked++
		}
	}
}

// fireHorizon returns how many activations of the cycle from pos, at
// most max, pass before one raises a tracked row's count to its next
// trigger, while no row is inserted or exchanged.
func (d *mgDryRun) fireHorizon(tb *mgTable, pos, max int) int {
	for idx, i := range d.slot {
		if i < 0 {
			continue
		}
		e := &tb.entries[i]
		if max = counterHorizon(len(d.slot), pos, idx, e.next-e.count-1, max); max == 0 {
			return 0
		}
	}
	return max
}

// holds reports whether every slot load found, none of them empty,
// still tracks its row.
func (d *mgDryRun) holds(tb *mgTable) bool {
	for idx, i := range d.slot {
		if i >= tb.used || tb.entries[i].row != d.phys[idx] {
			return false
		}
	}
	return true
}

// churnFree returns how many leading activations of the cycle from pos,
// at most max, can neither insert nor exchange a row, given the slots
// load found in tb (at least one of them empty). While the table has a
// free slot the first untracked activation inserts. Once it is full an
// untracked activation only raises the spillover until the spillover
// reaches the smallest tracked count M: counts only rise meanwhile, so
// the first M-1-spill untracked activations cannot exchange. A table
// with no slots never exchanges.
func (d *mgDryRun) churnFree(tb *mgTable, pos, max int) int {
	var q int64
	if tb.used == len(tb.entries) {
		if tb.used == 0 {
			return max
		}
		low := tb.entries[0].count
		for _, e := range tb.entries[1:tb.used] {
			low = min(low, e.count)
		}
		if q = low - 1 - tb.spill; q < 0 {
			q = 0
		}
		if q >= int64(max) {
			return max
		}
	}
	// The untracked activation after the churn-free ones is the
	// (q%u)-th untracked row from pos, q/u rounds on.
	u := int64(d.untracked)
	nth, k := int(q%u), len(d.slot)
	for j := 0; j < k; j++ {
		if d.slot[(pos+j)%k] >= 0 {
			continue
		}
		if nth == 0 {
			return min(max, j+int(q/u)*k)
		}
		nth--
	}
	return max
}

// bulk applies n churn-free activations of the cycle from pos to tb in
// closed form, through the slots load found: tracked rows count their
// hits, and an untracked row's hits raise the spillover. Each row gets
// n/k hits, and one more if it lies within the first n%k positions from
// pos.
func (d *mgDryRun) bulk(tb *mgTable, pos, n int) {
	k := len(d.slot)
	rounds, rest := int64(n/k), n%k
	for idx, i := range d.slot {
		hits := rounds
		if o := idx - pos; o >= 0 && o < rest || o < 0 && o+k < rest {
			hits++
		}
		if i >= 0 {
			tb.entries[i].count += hits
		} else {
			tb.spill += hits
		}
	}
}

// trigger is the count step between neighbourhood refreshes.
func (m *Graphene) trigger() int64 { return (m.Threshold + 1) / 2 }

// newEntry arms a fresh entry at the next trigger multiple above its
// inherited count: the inherited part is an overestimate shared with
// the evicted row, whose refreshes already covered it.
func (m *Graphene) newEntry(row int, count int64) mgEntry {
	tr := m.trigger()
	return mgEntry{row: row, count: count, next: (count/tr + 1) * tr}
}

// fire refreshes the blast radius of the entry's row each time its
// estimate crosses another trigger step. Counts are monotone within a
// window (Misra-Gries estimates never decrease), so stepping `next`
// forward refreshes once per trigger-worth of pressure — the cadence a
// per-row counter would have — rather than once per activation.
func (m *Graphene) fire(c *Controller, bank int, tb *mgTable, i int) {
	e := &tb.entries[i]
	if e.count < e.next {
		return
	}
	c.RefreshPhysRows(bank, []int{e.row - 2, e.row - 1, e.row + 1, e.row + 2})
	e.next += m.trigger()
}

// OnAutoRefresh implements Mitigation: reset all tables once per
// retention window, like CRA's counters.
func (m *Graphene) OnAutoRefresh(c *Controller) {
	if m.WindowREFs <= 0 {
		m.WindowREFs = c.RefsPerRetentionWindow()
	}
	m.refs++
	if m.refs%m.WindowREFs == 0 {
		for b := range m.tables {
			m.tables[b].used = 0
			m.tables[b].spill = 0
		}
	}
}

// StorageBits implements Mitigation: per-bank entry slots (address +
// counter) plus one spillover counter per bank — the top-k compromise
// between CRA's every-row table and TRR's stateless-ish sampler.
func (m *Graphene) StorageBits() int64 {
	perBank := int64(m.Entries)*int64(mitAddrBits+m.CounterBits) + int64(m.CounterBits)
	return int64(len(m.tables)) * perBank
}

// TWiCe implements a pruned per-aggressor counter table: exact counts
// like CRA, but an entry survives a prune checkpoint only while it is
// on pace to reach the trigger before the retention window ends. Benign
// rows fall off the pace within a few checkpoints, so the live table
// tracks only plausibly-hot rows; StorageBits charges the high-water
// mark, the table size the hardware would have to provision.
type TWiCe struct {
	// Threshold is the device's minimum hammer count; a row's
	// neighbours are refreshed when its count reaches
	// ceil(Threshold/2).
	Threshold int64 `snapshot:"config"`
	// CounterBits sizes each counter for the storage estimate.
	CounterBits int `snapshot:"config"`
	// WindowREFs is the retention window in REF commands (prune pace
	// is measured against it); zero derives it from the controller's
	// refresh config.
	WindowREFs int64

	tables [][]twEntry
	refs   int64
	peak   int
}

// twEntry is one live counter: a physical row, its activation count,
// and the REF-command age since the entry was allocated.
type twEntry struct {
	row   int
	count int64
	life  int64
}

// NewTWiCe builds per-bank pruned tables. banks is the flat
// rank*Banks+bank count of the channel the mitigation will observe.
func NewTWiCe(threshold int64, banks int) *TWiCe {
	return &TWiCe{Threshold: threshold, CounterBits: 20,
		tables: make([][]twEntry, banks)}
}

// Name implements Mitigation.
func (m *TWiCe) Name() string { return "TWiCe(pruned)" }

// OnActivate implements Mitigation. Lookups walk the table in
// insertion order; the table stays small because pruning evicts
// off-pace rows every checkpoint.
func (m *TWiCe) OnActivate(c *Controller, bank, logRow int) {
	phys := c.PhysRowAt(bank, logRow)
	tb := m.tables[bank]
	if i := m.find(bank, phys); i >= 0 {
		tb[i].count++
		if tb[i].count >= (m.Threshold+1)/2 {
			c.RefreshPhysRows(bank, []int{phys - 2, phys - 1, phys + 1, phys + 2})
			tb[i].count = 0
			tb[i].life = 0
		}
		return
	}
	m.tables[bank] = append(tb, twEntry{row: phys, count: 1})
	if n := m.liveEntries(); n > m.peak {
		m.peak = n
	}
}

// find returns the index of physical row phys in a bank's table, or -1.
func (m *TWiCe) find(flat, phys int) int {
	for i, e := range m.tables[flat] {
		if e.row == phys {
			return i
		}
	}
	return -1
}

// ActivateHorizon implements HorizonMitigation: once every cycle row
// has a live counter, a row's activations are quiet until its count
// reaches the trigger. An untracked row allocates a counter (and may
// raise the peak) on the access path, so it ends the horizon at once.
func (m *TWiCe) ActivateHorizon(c *Controller, flat int, rows []int, pos, max int) int {
	trigger := (m.Threshold + 1) / 2
	tb := m.tables[flat]
	for idx, row := range rows {
		i := m.find(flat, c.PhysRowAt(flat, row))
		if i < 0 {
			return 0
		}
		if max = counterHorizon(len(rows), pos, idx, trigger-tb[i].count-1, max); max == 0 {
			break
		}
	}
	return max
}

// OnActivateCycle implements HorizonMitigation. No counter is
// allocated, so the peak stays exact.
func (m *TWiCe) OnActivateCycle(c *Controller, flat int, rows []int, pos, n int) {
	tb := m.tables[flat]
	for idx, row := range rows {
		if hits := cycleHits(len(rows), pos, idx, n); hits > 0 {
			tb[m.find(flat, c.PhysRowAt(flat, row))].count += int64(hits)
		}
	}
}

// liveEntries counts the currently allocated entries across banks.
func (m *TWiCe) liveEntries() int {
	n := 0
	for _, tb := range m.tables {
		n += len(tb)
	}
	return n
}

// OnAutoRefresh implements Mitigation: one prune checkpoint per REF.
// An entry of age `life` REFs survives only while
// count*WindowREFs >= trigger*life — i.e. while its activation rate
// can still reach the trigger before the window ends. At the window
// boundary every count has either fired or cannot fire, so the tables
// reset.
func (m *TWiCe) OnAutoRefresh(c *Controller) {
	if m.WindowREFs <= 0 {
		m.WindowREFs = c.RefsPerRetentionWindow()
	}
	m.refs++
	if m.refs%m.WindowREFs == 0 {
		for b := range m.tables {
			m.tables[b] = m.tables[b][:0]
		}
		return
	}
	trigger := (m.Threshold + 1) / 2
	for b, tb := range m.tables {
		kept := tb[:0]
		for _, e := range tb {
			e.life++
			if e.count*m.WindowREFs >= trigger*e.life {
				kept = append(kept, e)
			}
		}
		m.tables[b] = kept
	}
}

// StorageBits implements Mitigation: the peak live-table size at
// address+counter+age bits per entry. Against benign traffic the peak
// stays orders of magnitude below CRA's every-row table; adversarial
// many-sided patterns grow it, which is TWiCe's documented trade.
func (m *TWiCe) StorageBits() int64 {
	const lifeBits = 16
	return int64(m.peak) * int64(mitAddrBits+m.CounterBits+lifeBits)
}

// RefreshScaling is the paper's "increase the refresh rate" immediate
// solution as an attachable Mitigation, and the only refresh-rate knob:
// Controller.Attach recognizes it and multiplies the controller's REF
// rate by Factor (several attached scalings stack). Attach it before
// any traffic to run at the scaled rate from time zero. It keeps no state and observes no
// activations — its activation horizon is unbounded, so the hammer
// kernel stays in closed form and the sweeps pay only the simulated
// refresh cost, not a simulation slowdown.
type RefreshScaling struct {
	// Factor multiplies the controller's refresh rate; 2 halves the
	// refresh window, 7 is the paper's elimination multiplier for the
	// worst 2013-class module.
	Factor float64
}

// NewRefreshScaling builds the refresh-rate policy. It panics on a
// non-positive factor, which has no physical meaning.
func NewRefreshScaling(factor float64) *RefreshScaling {
	if factor <= 0 {
		panic(fmt.Sprintf("memctrl: RefreshScaling factor %v must be positive", factor))
	}
	return &RefreshScaling{Factor: factor}
}

// Name implements Mitigation.
func (m *RefreshScaling) Name() string { return fmt.Sprintf("refresh-x%g", m.Factor) }

// OnActivate implements Mitigation (refresh scaling observes nothing).
func (m *RefreshScaling) OnActivate(c *Controller, bank, logRow int) {}

// OnAutoRefresh implements Mitigation (the rate change itself is
// applied by Controller.Attach).
func (m *RefreshScaling) OnAutoRefresh(c *Controller) {}

// StorageBits implements Mitigation: rate scaling is stateless; its
// cost is refresh energy and lost bandwidth, which the controller
// stats account.
func (m *RefreshScaling) StorageBits() int64 { return 0 }

// RefreshFactor implements the refreshScaler hook Controller.Attach
// recognizes.
func (m *RefreshScaling) RefreshFactor() float64 { return m.Factor }

// ActivateHorizon implements HorizonMitigation: refresh scaling
// observes nothing, so every activation is quiet.
func (m *RefreshScaling) ActivateHorizon(c *Controller, flat int, rows []int, pos, max int) int {
	return max
}

// OnActivateCycle implements HorizonMitigation.
func (m *RefreshScaling) OnActivateCycle(c *Controller, flat int, rows []int, pos, n int) {}

var (
	_ HorizonMitigation = (*Graphene)(nil)
	_ HorizonMitigation = (*TWiCe)(nil)
	_ HorizonMitigation = (*RefreshScaling)(nil)
)
