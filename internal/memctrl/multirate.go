package memctrl

// Controller-integrated multi-rate refresh (RAIDR, Liu et al. ISCA
// 2012, reference [68] of the paper): rows whose weakest cell retains
// data comfortably beyond the nominal window are refreshed at a
// multiple of it, eliminating most row refreshes. MultiRateRefresh
// drives raidr.Plan bins through the real controller's refresh engine
// — attachable like any other Mitigation, per channel, across every
// rank — so both sides of the co-design trade are measured where they
// occur: the refresh savings in the controller's REF accounting and
// device energy, and the RowHammer exposure in the stretched
// charge-restore gaps of slow-binned victim rows, composing with every
// mitigation of the E40 frontier.

import (
	"fmt"

	"repro/internal/raidr"
)

// MultiRateRefresh replaces the controller's uniform per-REF row sweep
// with a raidr.Plan-driven schedule: during retention window w
// (1-based), a row in a bin with multiple m is refreshed only when
// w % m == 0, at REF-command granularity on every rank of the
// channel.
//
// It is a passive mitigation: it observes no activations, so the
// batched hammer hot path stays enabled and attack sweeps against
// multi-rate systems run at full speed.
type MultiRateRefresh struct {
	// DefaultPlan is applied to every flat bank without an explicit
	// override.
	DefaultPlan *raidr.Plan `snapshot:"config"`

	plans []*raidr.Plan       `snapshot:"config"` // per flat bank, resolved at attach
	over  map[int]*raidr.Plan `snapshot:"config"` // explicit SetBankPlan overrides
	ptr   int
	sweep int64 // current retention window, 1-based
	rows  int
	// RowRefreshes and RowsSkipped count scheduled versus skipped row
	// refreshes across all ranks — the savings axis.
	RowRefreshes int64
	RowsSkipped  int64
}

var (
	_ HorizonMitigation = (*MultiRateRefresh)(nil)
	_ autoRefreshPolicy = (*MultiRateRefresh)(nil)
)

// NewMultiRate builds the policy with one plan shared by every flat
// bank. It panics on an invalid plan (raidr.Plan.Validate); the row
// count is checked against the controller geometry at attach.
func NewMultiRate(plan *raidr.Plan) *MultiRateRefresh {
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	return &MultiRateRefresh{DefaultPlan: plan, sweep: 1}
}

// SetBankPlan overrides the plan of one flat bank (rank*Banks+bank) —
// per-bank profiling results bin each bank's rows independently. It
// must be called before Attach and panics on an invalid plan.
func (m *MultiRateRefresh) SetBankPlan(flatBank int, plan *raidr.Plan) {
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	if m.plans != nil {
		panic("memctrl: SetBankPlan after Attach")
	}
	if m.over == nil {
		m.over = map[int]*raidr.Plan{}
	}
	m.over[flatBank] = plan
}

// bind implements autoRefreshPolicy: resolve and validate the per-bank
// plan table against the controller's topology.
func (m *MultiRateRefresh) bind(c *Controller) {
	if m.plans != nil {
		// One instance per controller: a shared instance would advance
		// its group pointer once per controller per REF, silently
		// skipping row groups on every device — the under-refresh this
		// package panics to prevent everywhere else.
		panic("memctrl: MultiRateRefresh already attached to a controller; build one instance per channel")
	}
	g := c.geom
	m.rows = g.Rows
	flat := len(c.ranks) * g.Banks
	m.plans = make([]*raidr.Plan, flat)
	for b := 0; b < flat; b++ {
		plan := m.DefaultPlan
		if p, ok := m.over[b]; ok {
			plan = p
		}
		if plan == nil {
			panic(fmt.Sprintf("memctrl: no refresh plan for flat bank %d", b))
		}
		if len(plan.BinOf) != g.Rows {
			panic(fmt.Sprintf("memctrl: flat bank %d plan covers %d rows, geometry has %d", b, len(plan.BinOf), g.Rows))
		}
		m.plans[b] = plan
	}
}

// serviceREF implements autoRefreshPolicy: refresh this REF command's
// row group on every bank of every rank, skipping rows whose bin is
// not due in the current retention window. Mirrors
// dram.Device.AutoRefresh's group advance so a plan of all-nominal
// bins refreshes exactly the rows the uniform sweep would.
func (m *MultiRateRefresh) serviceREF(c *Controller) (refreshed, nominal int64) {
	g := c.geom
	n := c.ranks[0].AutoRefreshGroupSize()
	for rk, dev := range c.ranks {
		for b := 0; b < g.Banks; b++ {
			plan := m.plans[rk*g.Banks+b]
			for i := 0; i < n; i++ {
				r := (m.ptr + i) % m.rows
				nominal++
				if m.sweep%int64(plan.Bins[plan.BinOf[r]].Multiple) == 0 {
					dev.RefreshPhysRow(b, r, c.now)
					refreshed++
				} else {
					m.RowsSkipped++
				}
			}
		}
	}
	m.RowRefreshes += refreshed
	prev := m.ptr
	m.ptr = (m.ptr + n) % m.rows
	if m.ptr <= prev {
		// The group pointer wrapped: one full sweep — one retention
		// window — is complete.
		m.sweep++
	}
	return refreshed, nominal
}

// Name implements Mitigation.
func (m *MultiRateRefresh) Name() string { return "RAIDR(multi-rate)" }

// OnActivate implements Mitigation (the policy observes nothing).
func (m *MultiRateRefresh) OnActivate(c *Controller, bank, logRow int) {}

// OnAutoRefresh implements Mitigation (the row schedule runs through
// the controller's refresh engine, not the mitigation hook).
func (m *MultiRateRefresh) OnAutoRefresh(c *Controller) {}

// StorageBits implements Mitigation: the per-row bin table, charged at
// ceil(log2(bins)) bits per row per flat bank — an upper bound; the
// ISCA 2012 design compresses the table into Bloom filters.
func (m *MultiRateRefresh) StorageBits() int64 {
	var total int64
	for _, plan := range m.plans {
		bits := 0
		for 1<<bits < len(plan.Bins) {
			bits++
		}
		total += int64(len(plan.BinOf)) * int64(bits)
	}
	return total
}

// ActivateHorizon implements HorizonMitigation: the policy observes no
// activations, so attaching it keeps the hammer kernel in closed form.
func (m *MultiRateRefresh) ActivateHorizon(c *Controller, flat int, rows []int, pos, max int) int {
	return max
}

// OnActivateCycle implements HorizonMitigation.
func (m *MultiRateRefresh) OnActivateCycle(c *Controller, flat int, rows []int, pos, n int) {}

// SavedFraction returns the fraction of scheduled row refreshes the
// policy skipped so far.
func (m *MultiRateRefresh) SavedFraction() float64 {
	total := m.RowRefreshes + m.RowsSkipped
	if total == 0 {
		return 0
	}
	return float64(m.RowsSkipped) / float64(total)
}

// Sweep returns the current retention window number (1-based).
func (m *MultiRateRefresh) Sweep() int64 { return m.sweep }
