package modules

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dram"
	"repro/internal/rng"
)

func TestPopulationSizeAndCensus(t *testing.T) {
	pop := Population(1)
	if len(pop) != TotalModules {
		t.Fatalf("population = %d, want %d", len(pop), TotalModules)
	}
	c := TakeCensus(pop)
	if c.Vulnerable != TotalVulnerable {
		t.Fatalf("vulnerable = %d, want %d", c.Vulnerable, TotalVulnerable)
	}
	if c.EarliestVuln != 2010 {
		t.Fatalf("earliest vulnerable year = %d, want 2010", c.EarliestVuln)
	}
	for _, year := range []int{2012, 2013} {
		e := c.ByYear[year]
		if e[1] != e[0] {
			t.Fatalf("year %d: %d/%d vulnerable, want all", year, e[1], e[0])
		}
	}
	for _, year := range []int{2008, 2009} {
		if e := c.ByYear[year]; e[1] != 0 {
			t.Fatalf("year %d: %d vulnerable, want none", year, e[1])
		}
	}
}

func TestPopulationDeterministic(t *testing.T) {
	a := Population(7)
	b := Population(7)
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Seed != b[i].Seed ||
			a[i].Vuln.WeakCellFraction != b[i].Vuln.WeakCellFraction {
			t.Fatalf("module %d differs between same-seed populations", i)
		}
	}
}

func TestVendorsInterleaved(t *testing.T) {
	pop := Population(1)
	counts := map[Vendor]int{}
	for i := range pop {
		counts[pop[i].Vendor]++
	}
	for v, n := range counts {
		if n < 30 {
			t.Fatalf("vendor %s has only %d modules", v, n)
		}
	}
}

func TestErrorRatesRiseThenDip(t *testing.T) {
	pop := Population(3)
	test := DefaultStandardTest()
	src := rng.New(42)
	meanByYear := map[int]*struct {
		sum float64
		n   int
	}{}
	for i := range pop {
		m := &pop[i]
		if !m.Vulnerable() {
			continue
		}
		e := m.ErrorsPer1e9(test, src)
		s := meanByYear[m.Year]
		if s == nil {
			s = &struct {
				sum float64
				n   int
			}{}
			meanByYear[m.Year] = s
		}
		s.sum += e
		s.n++
	}
	mean := func(y int) float64 {
		s := meanByYear[y]
		if s == nil || s.n == 0 {
			return 0
		}
		return s.sum / float64(s.n)
	}
	if !(mean(2010) < mean(2011) && mean(2011) < mean(2012) && mean(2012) < mean(2013)) {
		t.Fatalf("error rates not rising 2010→2013: %v %v %v %v",
			mean(2010), mean(2011), mean(2012), mean(2013))
	}
	if mean(2014) >= mean(2013) {
		t.Fatalf("no 2014 dip: 2014=%v >= 2013=%v", mean(2014), mean(2013))
	}
	// Peak magnitude: 2013 should reach the 1e4-1e6 decade.
	if mean(2013) < 1e4 || mean(2013) > 5e6 {
		t.Fatalf("2013 mean error rate %v out of the paper's envelope", mean(2013))
	}
}

func TestInvulnerableModulesReportZero(t *testing.T) {
	pop := Population(5)
	test := DefaultStandardTest()
	src := rng.New(1)
	for i := range pop {
		if !pop[i].Vulnerable() {
			if e := pop[i].ErrorsPer1e9(test, src); e != 0 {
				t.Fatalf("invulnerable module %s reported %v errors", pop[i].ID, e)
			}
		}
	}
}

func TestRefreshMultiplierWorstCaseNear7x(t *testing.T) {
	pop := Population(1)
	test := DefaultStandardTest()
	worst := 0.0
	for i := range pop {
		if m := pop[i].RefreshMultiplierToEliminate(test); m > worst {
			worst = m
		}
	}
	// The paper: refresh must increase ~7x to eliminate all errors.
	if worst < 5 || worst > 10 {
		t.Fatalf("worst-case elimination multiplier = %v, want ~7", worst)
	}
}

func TestRefreshMultiplierInvulnerable(t *testing.T) {
	m := Module{Cells: 1 << 30}
	if m.RefreshMultiplierToEliminate(DefaultStandardTest()) != 1 {
		t.Fatal("invulnerable module needs no extra refresh")
	}
}

func TestStandardTestMagnitude(t *testing.T) {
	test := DefaultStandardTest()
	// 64 ms window / (2 * 49 ns) ~ 652k pairs.
	if test.PairsPerWindow < 500e3 || test.PairsPerWindow > 800e3 {
		t.Fatalf("PairsPerWindow = %v, want ~650k", test.PairsPerWindow)
	}
}

func TestDeviceInstantiation(t *testing.T) {
	pop := Population(9)
	var vuln *Module
	for i := range pop {
		if pop[i].Year == 2013 {
			vuln = &pop[i]
			break
		}
	}
	if vuln == nil {
		t.Fatal("no 2013 module")
	}
	g := dram.Geometry{Banks: 1, Rows: 1024, Cols: 16}
	dev, dm, rm := vuln.Device(g, 0.05)
	if dev == nil || dm == nil || rm == nil {
		t.Fatal("device instantiation failed")
	}
	if rt := dev.Remap(); slices.Equal(rt.PhysSlice(), dram.IdentityRemap(rt.Rows()).PhysSlice()) {
		t.Error("remap fraction 0.05 produced identity mapping")
	}
	// Same module instantiated twice has identical physics.
	_, dm2, _ := vuln.Device(g, 0.05)
	if dm.WeakCellCount() != dm2.WeakCellCount() {
		t.Error("module physics not reproducible")
	}
}

func TestVulnerabilityScalesWithCells(t *testing.T) {
	// A module's expected error count must scale linearly with its
	// capacity under the analytic model.
	pop := Population(11)
	test := DefaultStandardTest()
	for i := range pop {
		m := pop[i]
		if !m.Vulnerable() {
			continue
		}
		frac := m.Vuln.FractionFlippableAt(test.PairsPerWindow)
		if frac <= 0 {
			t.Fatalf("vulnerable module %s has zero flippable fraction", m.ID)
		}
		if frac > 1e-2 {
			t.Fatalf("module %s flippable fraction %v implausibly high", m.ID, frac)
		}
		if math.IsNaN(frac) {
			t.Fatalf("NaN fraction for %s", m.ID)
		}
		break
	}
}

func TestVendorStrings(t *testing.T) {
	if VendorA.String() != "A" || VendorB.String() != "B" || VendorC.String() != "C" {
		t.Fatal("vendor names wrong")
	}
}
