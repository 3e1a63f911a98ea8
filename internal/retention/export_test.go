package retention

// ResetCounters zeroes the decay counter.
func (m *Model) ResetCounters() { m.decays = 0 }

// WeakRows returns the sorted physical rows of a bank holding at least
// one weak cell.
func (m *Model) WeakRows(bank int) []int {
	base := bank * m.geom.Rows
	var out []int
	for r := 0; r < m.geom.Rows; r++ {
		if len(m.byRow[base+r]) > 0 {
			out = append(out, r)
		}
	}
	return out
}
