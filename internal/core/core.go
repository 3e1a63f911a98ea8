// Package core ties the substrates into the framework the experiments
// and examples program against: a System couples a module's physics to
// a device, controller and mitigations; the analysis functions provide
// the closed-form reliability math of the ISCA 2014 paper that the
// DATE 2017 overview summarizes (PARA failure probabilities, the
// refresh-rate elimination multiplier, MTTF conversions).
package core

import (
	"math"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/modules"
	"repro/internal/retention"
	"repro/internal/rng"
	"repro/internal/spd"
)

// Options configures how a module is instantiated as a system.
type Options struct {
	// Topology is the channel/rank shape of the system. Zero means a
	// single channel with a single rank of DefaultGeom.
	Topology dram.Topology
	// Mapping selects the address-mapping policy by name ("row",
	// "channel", "xor"); empty means row-interleaved, the original
	// layout.
	Mapping string
	// RemapFraction is the fraction of internally remapped rows.
	RemapFraction float64
	// DisableRefresh turns off auto refresh (retention experiments).
	DisableRefresh bool
	// ECC selects the per-channel ECC configuration (zero: non-ECC).
	ECC memctrl.ECCConfig
}

// DefaultGeom is the workhorse geometry of the experiments: one bank,
// 2048 rows of 1 KiB.
func DefaultGeom() dram.Geometry {
	return dram.Geometry{Banks: 1, Rows: 2048, Cols: 16}
}

// System is one instantiated memory system: a topology of devices
// built from one module's physics, per-channel controllers behind a
// mapping policy, and the ground-truth fault models. A single-device
// system is the 1-channel 1-rank case: Mem.Controller(0),
// Mem.Device(0, 0), Disturbs[0][0] and Retentions[0][0].
type System struct {
	Module *modules.Module
	Topo   dram.Topology
	// Mem routes flat addresses through the active mapping policy and
	// owns the devices, so every device's cells, clocks and stats are
	// serialized through it.
	Mem *memctrl.MemorySystem
	// Disturbs and Retentions are indexed [channel][rank].
	Disturbs   [][]*disturb.Model
	Retentions [][]*retention.Model
}

// Build instantiates a module as a simulated system through
// memctrl.Assemble. Each device draws its physics from its own RNG
// substream of the module seed (modules.Module.Attach), so channel 0 /
// rank 0 draws what a single-device system of the same geometry draws.
// It panics on a bad topology or mapping name.
func Build(m *modules.Module, opt Options) *System {
	t := opt.Topology
	if t.IsZero() {
		t = dram.SingleChannel(DefaultGeom())
	}
	s := &System{Module: m, Topo: t}
	cfg := memctrl.Config{DisableRefresh: opt.DisableRefresh, ECC: opt.ECC}
	mem, err := memctrl.Assemble(t, opt.Mapping, cfg, func(ch, rk int, dev *dram.Device) {
		if rk == 0 {
			s.Disturbs = append(s.Disturbs, nil)
			s.Retentions = append(s.Retentions, nil)
		}
		dm, rm := m.Attach(dev, opt.RemapFraction, ch*t.Ranks+rk)
		s.Disturbs[ch] = append(s.Disturbs[ch], dm)
		s.Retentions[ch] = append(s.Retentions[ch], rm)
	})
	if err != nil {
		panic(err)
	}
	s.Mem = mem
	return s
}

// TotalFlips sums disturbance flips across every device of the system.
func (s *System) TotalFlips() int64 {
	var total int64
	for _, dms := range s.Disturbs {
		for _, dm := range dms {
			total += dm.TotalFlips()
		}
	}
	return total
}

// AttachPARA attaches PARA in the given placement, wiring the SPD
// adjacency oracle automatically for the controller+SPD placement.
func (s *System) AttachPARA(p float64, where memctrl.Placement, src *rng.Stream) *memctrl.PARA {
	var oracle *spd.AdjacencyOracle
	if where == memctrl.InControllerWithSPD {
		rt, err := spd.Decode(spd.Encode(s.Mem.Device(0, 0).Remap()))
		if err != nil {
			panic(err) // encoding our own table cannot fail
		}
		oracle = spd.NewOracle(rt)
	}
	para := memctrl.NewPARA(p, where, oracle, src)
	s.Mem.Controller(0).Attach(para)
	return para
}

// AttachPARAEachChannel attaches an independent in-DRAM PARA instance
// to every channel, each drawing from its own split of src. In-DRAM
// placement is the correct one for multi-rank channels: the device
// knows its own remap, so adjacency stays exact on every rank.
func (s *System) AttachPARAEachChannel(p float64, src *rng.Stream) []*memctrl.PARA {
	var out []*memctrl.PARA
	for ch := 0; ch < s.Topo.Channels; ch++ {
		para := memctrl.NewPARA(p, memctrl.InDRAM, nil, src.Split())
		s.Mem.Controller(ch).Attach(para)
		out = append(out, para)
	}
	return out
}

// --- Closed-form reliability analysis (ISCA 2014 Section 8) ---

// PARAFailureProbability returns the probability that one hammer
// "attempt" defeats PARA: the victim's threshold-many adjacent
// activations all fail to trigger a neighbour refresh on the relevant
// side. p is PARA's total probability, threshold the victim cell's
// hammer threshold.
func PARAFailureProbability(p float64, threshold float64) float64 {
	if p <= 0 {
		return 1
	}
	if p >= 2 {
		return 0
	}
	// Each activation refreshes the victim's side with probability
	// p/2; the attempt succeeds only if all `threshold` activations
	// miss. Work in log space: the result underflows float64 for
	// realistic parameters, which is exactly the paper's point.
	return math.Exp(float64(threshold) * math.Log1p(-p/2))
}

// PARAExpectedYearsToFailure converts the per-attempt failure
// probability into an expected time to first failure under continuous
// maximum-rate hammering. actRate is aggressor activations per second,
// threshold the victim's hammer threshold.
func PARAExpectedYearsToFailure(p, threshold, actRate float64) float64 {
	q := PARAFailureProbability(p, threshold)
	if q <= 0 {
		return math.Inf(1)
	}
	attemptsPerSec := actRate / threshold
	mttfSec := 1 / (q * attemptsPerSec)
	return mttfSec / (365.25 * 24 * 3600)
}

// HardDiskMTTFYears is the reference MTTF the paper compares PARA
// against ("much higher reliability guarantees than modern hard disks
// today"): on the order of a century.
const HardDiskMTTFYears = 114 // 1e6 hours

// RefreshBurden quantifies the cost of refreshing a device of the
// given row count per bank: the fraction of time a bank is unavailable
// (tRFC per tREFI) and the refresh energy per second.
type RefreshBurden struct {
	// RowsPerBank of the device (scales with density).
	RowsPerBank int
	// ThroughputLossFrac is the time fraction consumed by refresh.
	ThroughputLossFrac float64
	// RefreshPowerW is the average refresh power in watts.
	RefreshPowerW float64
}

// ComputeRefreshBurden evaluates the refresh cost for a device of the
// given rows per bank and banks, under a refresh-rate multiplier. tRFC
// grows with rows per REF group, which is how density hurts: more rows
// must be refreshed within the same window.
func ComputeRefreshBurden(timing dram.Timing, energy dram.Energy, banks, rowsPerBank int, multiplier float64) RefreshBurden {
	rowsPerREF := float64(rowsPerBank) / 8192
	if rowsPerREF < 1 {
		rowsPerREF = 1
	}
	// tRFC scales with the rows refreshed per command; anchor the
	// default tRFC at a 32k-row (4 rows/REF) part.
	tRFC := float64(timing.TRFC) * rowsPerREF / 4
	tREFI := float64(timing.TREFI) / multiplier
	lossFrac := tRFC / tREFI
	if lossFrac > 1 {
		lossFrac = 1
	}
	refreshesPerSec := float64(dram.Second) / tREFI
	rowsPerSec := refreshesPerSec * rowsPerREF * float64(banks)
	return RefreshBurden{
		RowsPerBank:        rowsPerBank,
		ThroughputLossFrac: lossFrac,
		RefreshPowerW:      rowsPerSec * energy.REFPerRow * 1e-12,
	}
}

// FITFromMTTFYears converts mean time to failure in years to FIT
// (failures per billion device hours).
func FITFromMTTFYears(years float64) float64 {
	if math.IsInf(years, 1) {
		return 0
	}
	hours := years * 365.25 * 24
	return 1e9 / hours
}
