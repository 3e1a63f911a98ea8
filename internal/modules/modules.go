// Package modules generates the synthetic population of 129 DRAM
// modules — three manufacturers (A, B, C), manufacture years
// 2008–2014 — whose RowHammer vulnerability statistics reproduce
// Figure 1 of the paper and the census claims around it: 110 of the
// 129 modules exhibit errors, the earliest vulnerable module dates to
// 2010, every 2012–2013 module is vulnerable, and error rates span
// zero to around 10^6 errors per 10^9 cells with a dip in the 2014
// samples.
//
// The paper measured real modules on an FPGA tester; we substitute a
// calibrated population model (see DESIGN.md). Each module carries a
// full disturbance parameter set, so the same module object can be
// instantiated as a concrete simulated device for the attack and
// mitigation experiments, or evaluated analytically for fleet-scale
// statistics.
package modules

import (
	"fmt"
	"math"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/retention"
	"repro/internal/rng"
)

// Vendor identifies a DRAM manufacturer, anonymized as in the paper.
type Vendor int

// The three manufacturers of the study.
const (
	VendorA Vendor = iota
	VendorB
	VendorC
)

// String returns the anonymized vendor letter.
func (v Vendor) String() string { return [...]string{"A", "B", "C"}[v] }

// Module is one synthetic DIMM.
type Module struct {
	ID     string
	Vendor Vendor
	Year   int
	// Vuln is the module's disturbance calibration; Vuln.WeakCellFraction
	// is zero for invulnerable modules.
	Vuln disturb.Params
	// Ret is the module's retention calibration.
	Ret retention.Params
	// Cells is the module capacity in bits (2 Gb default).
	Cells int64
	// Seed reproduces the module's sampled physics.
	Seed uint64
}

// Vulnerable reports whether the module has any disturbable cells.
func (m *Module) Vulnerable() bool { return m.Vuln.WeakCellFraction > 0 }

// StandardTest describes the hammer test used for the Figure 1 sweep:
// double-sided hammering at the maximum rate the row cycle time
// allows, for one full refresh window.
type StandardTest struct {
	// PairsPerWindow is the number of aggressor-pair activations
	// within one refresh window.
	PairsPerWindow float64
}

// DefaultStandardTest derives the maximum-rate test from the default
// timing: one pair costs two row cycles.
func DefaultStandardTest() StandardTest {
	t := dram.DefaultTiming()
	window := float64(t.RetentionWindow())
	return StandardTest{PairsPerWindow: window / (2 * float64(t.TRC))}
}

// ErrorsPer1e9 returns a sampled error count per 10^9 cells for this
// module under the standard test. The expectation is the analytic
// flippable fraction; the sample is Poisson, modelling cell-population
// sampling noise between modules of the same class.
func (m *Module) ErrorsPer1e9(test StandardTest, src *rng.Stream) float64 {
	frac := m.Vuln.FractionFlippableAt(test.PairsPerWindow)
	mean := frac * float64(m.Cells)
	errs := float64(src.Poisson(mean))
	return errs / float64(m.Cells) * 1e9
}

// RefreshMultiplierToEliminate returns the refresh-rate multiplier at
// which the standard test can no longer flip any cell of this module:
// the effective per-window hammer count must fall below the module's
// minimum threshold. Returns 1 for invulnerable modules.
func (m *Module) RefreshMultiplierToEliminate(test StandardTest) float64 {
	if !m.Vulnerable() {
		return 1
	}
	eff := test.PairsPerWindow * (1 + (m.Vuln.SecondSideMin+m.Vuln.SecondSideMax)/2)
	mult := eff / m.Vuln.MinThreshold
	if mult < 1 {
		return 1
	}
	return mult
}

// Attach installs device sub of a system built from this module's
// physics on dev: an optional internal remap and the disturbance and
// retention fault models, drawn from substream sub of the module seed
// (rng.Sub). Devices of one system get independent weak-cell
// populations and remaps; device 0 draws from rng.New(Seed). The
// returned models let experiments inspect ground truth.
func (m *Module) Attach(dev *dram.Device, remapFraction float64, sub int) (*disturb.Model, *retention.Model) {
	src := rng.Sub(m.Seed, uint64(sub))
	g := dev.Geom
	if remapFraction > 0 {
		dev.SetRemap(dram.RandomRemap(g.Rows, remapFraction, src.Split()))
	}
	dm := disturb.NewModel(g, m.Vuln, src.Split())
	rm := retention.NewModel(g, m.Ret, src.Split())
	dev.AttachFault(dm)
	dev.AttachFault(rm)
	return dm, rm
}

// ScaleForSmallArray returns a copy of the module with hammer
// thresholds divided by thresholdDiv and the weak-cell fraction
// multiplied by weakMult (capped at weakCap when positive) — the
// standard densification a small simulated array needs so CLI- and
// experiment-scale hammer budgets reach its cells. A module that is
// not Vulnerable is returned unchanged. Full-scale numbers come from
// the analytic model (E3/E4); scaled systems are for end-to-end
// campaigns.
func (m Module) ScaleForSmallArray(thresholdDiv, weakMult, weakCap float64) Module {
	if !m.Vulnerable() {
		return m
	}
	m.Vuln.MinThreshold /= thresholdDiv
	m.Vuln.ThresholdMedian /= thresholdDiv
	m.Vuln.WeakCellFraction *= weakMult
	if weakCap > 0 && m.Vuln.WeakCellFraction > weakCap {
		m.Vuln.WeakCellFraction = weakCap
	}
	return m
}

// classSpec calibrates one manufacture year.
type classSpec struct {
	year       int
	count      int // modules of this year across all vendors
	vulnerable int // how many of them are vulnerable
	// medianRate is the class median error rate per 1e9 cells under
	// the standard test, for vulnerable modules.
	medianRate float64
	// scatter is the lognormal sigma of per-module rate variation.
	scatter float64
	// minThreshold floors cell thresholds for the class (activations
	// per window); newer classes are weaker.
	minThreshold float64
}

// The calibration table. Medians rise from single errors in 2010 to
// ~10^5 in 2013 and dip in 2014, tracking the envelope of Figure 1.
// Vulnerable counts sum to 110 of 129.
var classes = []classSpec{
	{2008, 6, 0, 0, 0, 0},
	{2009, 8, 0, 0, 0, 0},
	{2010, 12, 9, 5, 1.2, 900e3},
	{2011, 16, 14, 1e3, 1.2, 550e3},
	{2012, 25, 25, 6e4, 1.0, 250e3},
	{2013, 42, 42, 2e5, 1.0, 139e3},
	{2014, 20, 20, 2e4, 1.1, 200e3},
}

// vendorFactor scales error rates per manufacturer: B's modules peak
// highest in the study, A's lowest.
func vendorFactor(v Vendor) float64 {
	switch v {
	case VendorA:
		return 0.4
	case VendorB:
		return 2.5
	default:
		return 0.9
	}
}

// TotalModules is the population size, matching the paper.
const TotalModules = 129

// TotalVulnerable is the number of vulnerable modules, matching the
// paper's census.
const TotalVulnerable = 110

// Population deterministically generates the 129-module population.
func Population(seed uint64) []Module {
	src := rng.New(seed)
	test := DefaultStandardTest()
	var out []Module
	idx := 0
	for _, cls := range classes {
		for i := 0; i < cls.count; i++ {
			vendor := Vendor(idx % 3)
			m := Module{
				ID:     fmt.Sprintf("%s%02d-%d", vendor, idx, cls.year),
				Vendor: vendor,
				Year:   cls.year,
				Cells:  2 << 30, // 2 Gb
				Seed:   src.Uint64(),
			}
			if i < cls.vulnerable {
				rate := cls.medianRate * vendorFactor(vendor) *
					src.LogNormal(0, cls.scatter)
				m.Vuln = paramsForRate(rate, cls.minThreshold, test, src)
			}
			m.Ret = retention.DefaultParams()
			out = append(out, m)
			idx++
		}
	}
	return out
}

// paramsForRate inverts the analytic error-rate model: choose a weak
// cell fraction such that the standard test yields approximately the
// target errors-per-1e9 rate given the class threshold distribution.
func paramsForRate(ratePer1e9, minThreshold float64, test StandardTest, src *rng.Stream) disturb.Params {
	p := disturb.Params{
		ThresholdMedian: math.Max(minThreshold*2.2, 250e3),
		ThresholdSigma:  0.45,
		MinThreshold:    minThreshold,
		Dist2Fraction:   0.08,
		DPDFactor:       0.25,
		SecondSideMin:   0.3,
		SecondSideMax:   1.0,
	}
	// FractionFlippableAt is proportional to WeakCellFraction: solve
	// with a unit fraction then scale.
	p.WeakCellFraction = 1
	unit := p.FractionFlippableAt(test.PairsPerWindow)
	if unit <= 0 {
		// Threshold distribution out of the test's reach: make the
		// module effectively reachable by lowering the median toward
		// the floor. (Only relevant for the 2010 class.)
		p.ThresholdMedian = minThreshold * 1.3
		unit = p.FractionFlippableAt(test.PairsPerWindow)
	}
	p.WeakCellFraction = ratePer1e9 / 1e9 / unit
	return p
}

// Census summarizes the population the way Section II of the paper
// does.
type Census struct {
	Total        int
	Vulnerable   int
	EarliestVuln int
	// ByYear maps year -> (modules, vulnerable).
	ByYear map[int][2]int
}

// TakeCensus computes vulnerability statistics for a population.
func TakeCensus(pop []Module) Census {
	c := Census{Total: len(pop), EarliestVuln: 9999, ByYear: map[int][2]int{}}
	for i := range pop {
		m := &pop[i]
		e := c.ByYear[m.Year]
		e[0]++
		if m.Vulnerable() {
			c.Vulnerable++
			e[1]++
			if m.Year < c.EarliestVuln {
				c.EarliestVuln = m.Year
			}
		}
		c.ByYear[m.Year] = e
	}
	return c
}
