package disturb

import (
	"repro/internal/dram"
	"repro/internal/rng"
)

// DrawUnmemoized draws a model the way NewModel does on a memo miss,
// without consulting or filling the memo.
var DrawUnmemoized = drawFresh

// MemoHolds reports whether the process-wide memo holds the population
// drawn from geom, p and a stream at st.
func MemoHolds(geom dram.Geometry, p Params, st rng.State) bool {
	populations.mu.Lock()
	defer populations.mu.Unlock()
	return populations.entries[newMemoKey(geom, p, st)] != nil
}

// ResetCounters zeroes the flip counters without touching cell state.
func (m *Model) ResetCounters() { m.totalFlips, m.epochFlips = 0, 0 }

// CellsInRow returns the number of weak cells in a victim row.
func (m *Model) CellsInRow(bank, physRow int) int {
	lo, hi := m.resident(bank*m.geom.Rows + physRow)
	return int(hi - lo)
}
