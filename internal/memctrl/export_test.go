package memctrl

// PeakEntries reports the high-water mark of live counters (the
// provisioning size StorageBits charges).
func (m *TWiCe) PeakEntries() int { return m.peak }

// Flagged reports whether ANVIL ever flagged the given row.
func (m *ANVIL) Flagged(bank, logRow int) bool { return m.flagged[rowKey{bank, logRow}] }
