// Package raidr implements RAIDR-style multi-rate refresh (Liu et
// al., ISCA 2012, reference [68] of the paper): rows whose weakest
// cell retains data comfortably beyond the nominal 64 ms window are
// refreshed at a multiple of the window, eliminating most refresh
// operations. The paper cites RAIDR both as the motivation for why
// refresh matters ("DRAM refresh is already a significant burden")
// and as the kind of mechanism an intelligent memory controller
// enables.
//
// The package also quantifies the security interaction the paper's
// framing implies but no one had measured in 2017: slowing refresh
// for "strong" rows proportionally extends the RowHammer window of
// every victim in those rows, lowering the effective activation count
// an attacker needs per refresh epoch.
//
// memctrl.MultiRateRefresh executes a Plan through the memory
// controller's refresh engine.
package raidr

import "fmt"

// Bin is a refresh-rate bin.
type Bin struct {
	// Multiple is the refresh period in units of the nominal window
	// (1 = 64 ms, 4 = 256 ms, ...).
	Multiple int
}

// Plan assigns every row of a bank to a bin.
//
// Invariants (checked by Validate, enforced by NewPlan and the
// controller-integrated memctrl.MultiRateRefresh): bin 0 has
// Multiple 1 — it is the safety bin for known-weak rows, and a plan
// whose safety bin is slower than nominal silently under-refreshes
// every row binned there; every Multiple is at least 1 (a zero or
// negative multiple has no schedule meaning and divides by zero in the
// savings accounting); and every BinOf entry indexes an existing bin.
type Plan struct {
	// BinOf maps physical row -> bin index.
	BinOf []int
	// Bins is the bin table, sorted fastest first; bin 0 must have
	// Multiple 1 (the safety bin for known-weak rows).
	Bins []Bin
}

// Validate checks the documented plan invariants.
func (p *Plan) Validate() error {
	if len(p.Bins) == 0 {
		return fmt.Errorf("raidr: plan has no bins")
	}
	if p.Bins[0].Multiple != 1 {
		return fmt.Errorf("raidr: bin 0 has multiple %d, want 1 (the safety bin refreshes at the nominal rate)", p.Bins[0].Multiple)
	}
	for i, b := range p.Bins {
		if b.Multiple < 1 {
			return fmt.Errorf("raidr: bin %d has multiple %d, want >= 1", i, b.Multiple)
		}
	}
	for r, b := range p.BinOf {
		if b < 0 || b >= len(p.Bins) {
			return fmt.Errorf("raidr: row %d assigned to bin %d of %d", r, b, len(p.Bins))
		}
	}
	return nil
}

// NewPlan builds a plan that places the given weak rows in bin 0
// (nominal rate) and everything else in a single slow bin. It panics
// on a non-positive row count or a slow multiple below 1, which cannot
// form a valid plan.
func NewPlan(rows int, weakRows map[int]bool, slowMultiple int) *Plan {
	if rows <= 0 {
		panic(fmt.Sprintf("raidr: NewPlan with %d rows", rows))
	}
	if slowMultiple < 1 {
		panic(fmt.Sprintf("raidr: NewPlan slow multiple %d, want >= 1", slowMultiple))
	}
	p := &Plan{
		BinOf: make([]int, rows),
		Bins:  []Bin{{Multiple: 1}, {Multiple: slowMultiple}},
	}
	for r := 0; r < rows; r++ {
		if !weakRows[r] {
			p.BinOf[r] = 1
		}
	}
	return p
}

// RefreshOpsPerWindow returns how many row refreshes one nominal
// window costs under the plan, versus the all-nominal baseline.
func (p *Plan) RefreshOpsPerWindow() (planned, baseline float64) {
	baseline = float64(len(p.BinOf))
	for _, b := range p.BinOf {
		planned += 1 / float64(p.Bins[b].Multiple)
	}
	return planned, baseline
}

// SavedFraction returns the fraction of refresh operations the plan
// eliminates.
func (p *Plan) SavedFraction() float64 {
	planned, baseline := p.RefreshOpsPerWindow()
	return 1 - planned/baseline
}
