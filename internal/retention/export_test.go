package retention

// ResetCounters zeroes the decay counter.
func (m *Model) ResetCounters() { m.decays = 0 }

// WeakRows returns the sorted physical rows of a bank holding at least
// one weak cell.
func (m *Model) WeakRows(bank int) []int {
	base := bank * m.geom.Rows
	var out []int
	for r := 0; r < m.geom.Rows; r++ {
		if lo, hi := m.resident(base + r); lo < hi {
			out = append(out, r)
		}
	}
	return out
}

// cellsIn returns the number of weak cells residing in row idx.
func (m *Model) cellsIn(idx int) int {
	lo, hi := m.resident(idx)
	return int(hi - lo)
}
