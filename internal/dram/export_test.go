package dram

// ResetStats zeroes the activity counters.
func (d *Device) ResetStats() { d.Stats = Stats{} }

// IsIdentity reports whether the mapping is the identity.
func (rt *RemapTable) IsIdentity() bool {
	for i, p := range rt.phys {
		if p != i {
			return false
		}
	}
	return true
}
