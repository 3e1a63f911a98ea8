package dram

import (
	"fmt"

	"repro/internal/rng"
)

// RemapTable models DRAM-internal row remapping: manufacturers route
// faulty rows to spare rows after manufacturing, so logically adjacent
// row addresses are not necessarily physically adjacent. The ISCA 2014
// paper identifies this as the obstacle to implementing PARA in the
// memory controller, and proposes exposing the mapping through the
// module's SPD ROM (see package spd).
//
// The table is a bijection from logical to physical row numbers.
type RemapTable struct {
	phys []int // logical -> physical
	log  []int // physical -> logical
}

// IdentityRemap returns the trivial mapping for n rows.
func IdentityRemap(n int) *RemapTable {
	rt := &RemapTable{phys: make([]int, n), log: make([]int, n)}
	for i := 0; i < n; i++ {
		rt.phys[i] = i
		rt.log[i] = i
	}
	return rt
}

// RandomRemap returns a mapping for n rows in which the given fraction
// of logical rows are swapped with pseudo-randomly chosen partners,
// modelling repair-induced remapping. fraction 0 yields the identity.
func RandomRemap(n int, fraction float64, src *rng.Stream) *RemapTable {
	rt := IdentityRemap(n)
	swaps := int(float64(n) * fraction / 2)
	for i := 0; i < swaps; i++ {
		a := src.Intn(n)
		b := src.Intn(n)
		rt.swap(a, b)
	}
	return rt
}

func (rt *RemapTable) swap(logA, logB int) {
	pa, pb := rt.phys[logA], rt.phys[logB]
	rt.phys[logA], rt.phys[logB] = pb, pa
	rt.log[pa], rt.log[pb] = logB, logA
}

// Rows returns the number of rows the table covers.
func (rt *RemapTable) Rows() int { return len(rt.phys) }

// Phys returns the physical row for a logical row.
func (rt *RemapTable) Phys(logRow int) int { return rt.phys[logRow] }

// Log returns the logical row for a physical row.
func (rt *RemapTable) Log(physRow int) int { return rt.log[physRow] }

// Validate checks that the table is a bijection.
func (rt *RemapTable) Validate() error {
	if len(rt.phys) != len(rt.log) {
		return fmt.Errorf("dram: remap table length mismatch")
	}
	for l, p := range rt.phys {
		if p < 0 || p >= len(rt.log) {
			return fmt.Errorf("dram: physical row %d out of range", p)
		}
		if rt.log[p] != l {
			return fmt.Errorf("dram: remap not a bijection at logical %d", l)
		}
	}
	return nil
}

// PhysSlice returns a copy of the logical→physical mapping, used by
// the SPD encoder.
func (rt *RemapTable) PhysSlice() []int {
	return append([]int(nil), rt.phys...)
}

// RemapFromPhysSlice reconstructs a table from a logical→physical
// mapping, validating bijectivity.
func RemapFromPhysSlice(phys []int) (*RemapTable, error) {
	return remapFromOwnedPhys(append([]int(nil), phys...))
}

// remapFromOwnedPhys is RemapFromPhysSlice for a slice the table may
// keep.
func remapFromOwnedPhys(phys []int) (*RemapTable, error) {
	rt := &RemapTable{phys: phys, log: make([]int, len(phys))}
	for i := range rt.log {
		rt.log[i] = -1
	}
	for l, p := range rt.phys {
		if p < 0 || p >= len(phys) {
			return nil, fmt.Errorf("dram: physical row %d out of range", p)
		}
		if rt.log[p] != -1 {
			return nil, fmt.Errorf("dram: physical row %d mapped twice", p)
		}
		rt.log[p] = l
	}
	return rt, nil
}
