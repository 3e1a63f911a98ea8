package memctrl

import (
	"sort"

	"repro/internal/rng"
	"repro/internal/spd"
)

// Mitigation is a pluggable RowHammer countermeasure. The controller
// invokes OnActivate for every row activation it issues and
// OnAutoRefresh for every REF command; mitigations respond by
// refreshing rows through the controller, which charges their time and
// energy costs to the accounting that the countermeasure-comparison
// experiment (E5) reports.
//
// The bank index a mitigation observes (and hands back to
// RefreshLogRows/RefreshPhysRows/PhysRowAt) is the controller's flat
// rank*Banks+bank index, which equals the plain bank index on
// single-rank channels.
//
// Contract the hammer kernel (Controller.HammerRowsRanked) relies on:
// OnActivate may use PhysRowAt and may act only through Controller
// methods; it must not read cell contents or device stats. During a
// kernel call the device lags the controller by the pending run of
// activations, which those methods flush before they touch the
// device. The run can outlive a REF, so the same holds for
// OnAutoRefresh: a hook that reads or writes cells or device state
// other than through those methods must flush the run first, as the
// Scrubber's patrol does.
//
// The horizon contract (HorizonMitigation), for mitigations that let
// the kernel run their quiet stretches in closed form: an activation is
// quiet when OnActivate calls no Controller method other than PhysRowAt
// and does not depend on c.Now, so it touches only the mitigation's own
// state, which it may change freely; ActivateHorizon is pure,
// advancing no random stream and changing no table; OnActivateCycle
// leaves the mitigation exactly as that many OnActivate calls would.
// Without the interface, every activation the kernel issues steps one
// at a time through OnActivate.
type Mitigation interface {
	// Name identifies the mitigation in result tables.
	Name() string
	// OnActivate observes an activation of a logical row.
	OnActivate(c *Controller, bank, logRow int)
	// OnAutoRefresh observes one REF command, under the same contract
	// as OnActivate (see above).
	OnAutoRefresh(c *Controller)
	// StorageBits returns the mitigation's hardware state cost,
	// the axis on which the paper rejects the counter-based solution.
	StorageBits() int64
}

// HorizonMitigation is the optional batch form of Mitigation, shaped
// like dram.CycleFaultModel. The hammer kernel activates rows of one
// flat bank in cyclic order: activation j of a stretch that starts at
// cycle position pos is of logical row rows[(pos+j)%len(rows)].
//
// An activation is quiet when the mitigation's OnActivate for it calls
// no Controller method other than PhysRowAt and does not depend on
// c.Now: it touches only the mitigation's own state, whatever it does
// to it (a Graphene insertion or exchange is quiet). The kernel asks
// every attached mitigation for its horizon, takes the minimum, applies
// that many activations to each mitigation in turn through
// OnActivateCycle and steps the next one through OnActivate. Because
// quiet activations touch only the mitigation's own state, applying
// one mitigation's stretch before another's equals interleaving them. That holds while each instance is attached once
// and no two attached mitigations share a random stream. A horizon
// smaller than the true one is always correct; 0 makes the kernel step
// the next activation.
type HorizonMitigation interface {
	Mitigation
	// ActivateHorizon returns how many leading activations of the cycle
	// from pos, at most max, the mitigation observes quietly. It must be
	// pure: no random stream advances and no table changes (it may
	// remember its own result for OnActivateCycle).
	ActivateHorizon(c *Controller, flat int, rows []int, pos, max int) int
	// OnActivateCycle applies the first n activations of the cycle from
	// pos, n at most the horizon just reported, leaving the mitigation
	// exactly as n OnActivate calls would.
	OnActivateCycle(c *Controller, flat int, rows []int, pos, n int)
}

// cycleHits returns how many of the first n activations of a k-row
// cycle from pos activate the row at cycle index idx.
func cycleHits(k, pos, idx, n int) int {
	o := (idx - pos + k) % k
	if o >= n {
		return 0
	}
	return (n-o-1)/k + 1
}

// counterHorizon bounds a horizon by the row at cycle index idx when
// that row's next q activations are quiet and the one after acts: the
// acting activation sits q full cycles past the row's first position.
func counterHorizon(k, pos, idx int, q int64, max int) int {
	if q < 0 {
		q = 0
	}
	if q >= int64(max) {
		return max
	}
	return min(max, (idx-pos+k)%k+int(q)*k)
}

// Placement says where PARA logic lives, which determines what
// adjacency information it has. The paper discusses all three.
type Placement int

const (
	// InController without SPD info: the controller must assume
	// logical addresses are physically adjacent, which internal
	// remapping breaks.
	InController Placement = iota
	// InControllerWithSPD: the controller reads the module's SPD
	// adjacency blob (the ISCA 2014 proposal) and refreshes true
	// physical neighbours.
	InControllerWithSPD
	// InDRAM (or in the logic layer of a 3D-stacked device): the
	// device knows its own topology natively.
	InDRAM
)

// String names the placement for result tables.
func (p Placement) String() string {
	switch p {
	case InController:
		return "controller(no-SPD)"
	case InControllerWithSPD:
		return "controller+SPD"
	case InDRAM:
		return "in-DRAM"
	default:
		return "unknown"
	}
}

// PARA implements Probabilistic Adjacent Row Activation: on each
// activation, each side of the activated row is refreshed with
// probability P/2, out to Radius physical rows. No per-row state is
// kept; the paper's argument for PARA is exactly this statelessness.
//
// Blast-radius contract: the disturbance model couples aggressors to
// victims up to two physical rows away (distance-2 coupling, weaker
// but real), so a complete PARA must refresh out to Radius 2 —
// NewPARA's default, and the configuration every experiment and
// overhead number in this repository refers to unless it says
// otherwise. Radius 1 is the literal ISCA 2014 formulation; it leaves
// the distance-2 victim population exposed and exists only as an
// explicit ablation knob (E26). TestPARABlastRadiusContract pins both
// halves of this contract.
type PARA struct {
	// P is the total neighbour-refresh probability per activation.
	P float64 `snapshot:"config"`
	// Where determines the adjacency knowledge available.
	Where Placement `snapshot:"config"`
	// Oracle is required for InControllerWithSPD.
	Oracle *spd.AdjacencyOracle `snapshot:"config"`
	// Radius is how many rows on each side a triggered refresh
	// covers; see the blast-radius contract above.
	Radius int `snapshot:"config"`

	src *rng.Stream
	// ahead remembers the last horizon's draw-ahead: from stream state
	// `from`, n quiet activations leave the stream at `to`. It is a
	// pure function of the stream state, so it is never saved; a stale
	// entry simply fails to match.
	ahead paraAhead `snapshot:"derived"`
}

type paraAhead struct {
	from, to rng.Stream
	n        int
}

// NewPARA builds a PARA instance with its own random stream and the
// full blast radius of 2 (the blast-radius contract; see PARA).
func NewPARA(p float64, where Placement, oracle *spd.AdjacencyOracle, src *rng.Stream) *PARA {
	return &PARA{P: p, Where: where, Oracle: oracle, Radius: 2, src: src}
}

// Name implements Mitigation.
func (p *PARA) Name() string { return "PARA@" + p.Where.String() }

// OnActivate implements Mitigation.
func (p *PARA) OnActivate(c *Controller, bank, logRow int) {
	radius := p.Radius
	if radius < 1 {
		radius = 1
	}
	draw := rng.NewBernoulli(p.P / 2)
	for side := 0; side < 2; side++ {
		if !p.src.Bernoulli(draw) {
			continue
		}
		dir := 1
		if side == 0 {
			dir = -1
		}
		switch p.Where {
		case InDRAM:
			phys := c.PhysRowAt(bank, logRow)
			for d := 1; d <= radius; d++ {
				c.RefreshPhysRows(bank, []int{phys + dir*d})
			}
		case InControllerWithSPD:
			// The oracle returns logical rows whose physical rows
			// neighbour ours; refresh the ones on this side. The oracle
			// is built from the rank-0 remap; multi-rank systems attach
			// per-channel in-DRAM PARA instead.
			phys := c.PhysRowAt(bank, logRow)
			for d := 1; d <= radius; d++ {
				for _, n := range p.Oracle.NeighborsOf(logRow, d) {
					if c.PhysRowAt(bank, n)-phys == dir*d {
						c.RefreshLogRows(bank, []int{n})
					}
				}
			}
		default: // InController without SPD: assume logical adjacency
			for d := 1; d <= radius; d++ {
				c.RefreshLogRows(bank, []int{logRow + dir*d})
			}
		}
	}
}

// ActivateHorizon implements HorizonMitigation: an activation is quiet
// when both of its side draws miss, so the horizon is found by drawing
// ahead on a copy of the stream. Where the draw-ahead ends is kept for
// OnActivateCycle; the stream itself does not move.
func (p *PARA) ActivateHorizon(c *Controller, flat int, rows []int, pos, max int) int {
	n, to := p.src.PeekMisses(rng.NewBernoulli(p.P/2), 2, max)
	p.ahead = paraAhead{from: *p.src, to: to, n: n}
	return n
}

// OnActivateCycle implements HorizonMitigation: n quiet activations
// are 2n missed draws. When they are exactly the stretch the last
// horizon drew ahead over, the stream jumps to where that ended.
func (p *PARA) OnActivateCycle(c *Controller, flat int, rows []int, pos, n int) {
	to := p.ahead.to
	if p.ahead.n != n || p.ahead.from != *p.src {
		_, to = p.src.PeekMisses(rng.NewBernoulli(p.P/2), 2, n)
	}
	*p.src = to
}

// OnAutoRefresh implements Mitigation (PARA needs no refresh hook).
func (p *PARA) OnAutoRefresh(c *Controller) {}

// StorageBits implements Mitigation: PARA is stateless.
func (p *PARA) StorageBits() int64 { return 0 }

// CRA implements the counter-based approach the paper attributes to
// Kim et al. (IEEE CAL 2015): one activation counter per row; when a
// row's count within a refresh window reaches half the safe threshold
// (rounded up: the smallest count that is at least Threshold/2), its
// neighbours are refreshed and the counter resets. Exact — no
// vulnerability window — but the counter table is the large hardware
// cost the paper criticizes.
//
// Counters reset once per retention window, the CAL 2015 letter's
// cadence: within tREFW every row's charge is restored, so no pressure
// — and no count — may span two windows. The window length in REF
// commands depends on the controller's refresh config: at a refresh
// multiplier m the controller issues m×8192 REF commands per nominal
// window, so the old hardcoded 8192 silently shrank the window m-fold
// whenever CRA was combined with refresh-rate scaling. Never resetting
// early is the conservative direction — a stale counter fires extra
// refreshes, never fewer.
type CRA struct {
	// Threshold is the device's minimum hammer count; neighbours are
	// refreshed when a counter reaches ceil(Threshold/2).
	Threshold int64 `snapshot:"config"`
	// CounterBits sizes each counter for the storage estimate.
	CounterBits int `snapshot:"config"`
	// WindowREFs is the counter-reset window in REF commands. Zero
	// derives it from the controller the mitigation is attached to at
	// the first REF: the REF commands issued per nominal retention
	// window under the effective refresh rate
	// (Controller.RefsPerRetentionWindow).
	WindowREFs int64

	counters map[[2]int]int64 // (flat bank, phys row) -> count
	banks    int              `snapshot:"config"` // geometry, resolved at attach
	rows     int              `snapshot:"config"`
	refs     int64            // REF commands seen, for window reset
}

// NewCRA builds a counter table for the given geometry.
func NewCRA(threshold int64, banks, rows int) *CRA {
	return &CRA{
		Threshold:   threshold,
		CounterBits: 20,
		counters:    map[[2]int]int64{},
		banks:       banks,
		rows:        rows,
	}
}

// Name implements Mitigation.
func (m *CRA) Name() string { return "CRA(counters)" }

// OnActivate implements Mitigation.
func (m *CRA) OnActivate(c *Controller, bank, logRow int) {
	// Counters key on physical rows: the CAL 2015 proposal places the
	// counters in the controller but we grant it adjacency knowledge
	// so the experiment isolates the storage cost axis rather than the
	// adjacency axis (identical to logical keying on unremapped
	// devices).
	phys := c.PhysRowAt(bank, logRow)
	k := [2]int{bank, phys}
	m.counters[k]++
	// ceil(Threshold/2): plain Threshold/2 truncates odd thresholds
	// and fires one activation early, skewing the overhead attribution
	// of the frontier sweeps (TestCRAThresholdRounding pins this).
	if m.counters[k] >= (m.Threshold+1)/2 {
		c.RefreshPhysRows(bank, []int{phys - 2, phys - 1, phys + 1, phys + 2})
		m.counters[k] = 0
	}
}

// ActivateHorizon implements HorizonMitigation: a row's activations
// are quiet until its counter reaches the trigger.
func (m *CRA) ActivateHorizon(c *Controller, flat int, rows []int, pos, max int) int {
	trigger := (m.Threshold + 1) / 2
	for idx, row := range rows {
		count := m.counters[[2]int{flat, c.PhysRowAt(flat, row)}]
		if max = counterHorizon(len(rows), pos, idx, trigger-count-1, max); max == 0 {
			break
		}
	}
	return max
}

// OnActivateCycle implements HorizonMitigation.
func (m *CRA) OnActivateCycle(c *Controller, flat int, rows []int, pos, n int) {
	for idx, row := range rows {
		// A row the stretch does not reach gets no counter, as it would
		// get none without an activation.
		if hits := cycleHits(len(rows), pos, idx, n); hits > 0 {
			m.counters[[2]int{flat, c.PhysRowAt(flat, row)}] += int64(hits)
		}
	}
}

// OnAutoRefresh implements Mitigation: counters reset every full
// retention window, since pressure cannot span windows. The window is
// derived from the controller's refresh config unless WindowREFs pins
// it explicitly.
func (m *CRA) OnAutoRefresh(c *Controller) {
	if m.WindowREFs <= 0 {
		m.WindowREFs = c.RefsPerRetentionWindow()
	}
	m.refs++
	if m.refs%m.WindowREFs == 0 {
		m.counters = map[[2]int]int64{}
	}
}

// StorageBits implements Mitigation: a full table of per-row counters.
func (m *CRA) StorageBits() int64 {
	return int64(m.banks) * int64(m.rows) * int64(m.CounterBits)
}

// TRR models vendor in-DRAM targeted row refresh: a small sampler
// captures recently activated row addresses (probabilistically), and
// each REF additionally refreshes the neighbours of sampled rows. The
// sampler's limited capacity is what many-sided attacks later
// exploited (experiment E22 reproduces that bypass).
type TRR struct {
	// Entries is the sampler capacity.
	Entries int
	// SampleP is the probability an activation is sampled.
	SampleP float64 `snapshot:"config"`

	sampler  [][2]int // slot -> (bank, physRow); slots 0..filled-1 hold samples
	filled   int
	nextSlot int
	src      *rng.Stream
}

// NewTRR builds an in-DRAM sampler.
func NewTRR(entries int, sampleP float64, src *rng.Stream) *TRR {
	return &TRR{Entries: entries, SampleP: sampleP, sampler: make([][2]int, entries), src: src}
}

// Name implements Mitigation.
func (m *TRR) Name() string { return "TRR(in-DRAM)" }

// OnActivate implements Mitigation.
func (m *TRR) OnActivate(c *Controller, bank, logRow int) {
	if m.src.Bernoulli(rng.NewBernoulli(m.SampleP)) {
		m.sample(bank, c.PhysRowAt(bank, logRow))
	}
}

// sample records an activated row; round-robin eviction overwrites
// the oldest slot.
func (m *TRR) sample(bank, physRow int) {
	m.sampler[m.nextSlot] = [2]int{bank, physRow}
	if m.filled < m.Entries {
		m.filled++
	}
	m.nextSlot = (m.nextSlot + 1) % m.Entries
}

// ActivateHorizon implements HorizonMitigation: TRR acts only at REF,
// so every activation is quiet.
func (m *TRR) ActivateHorizon(c *Controller, flat int, rows []int, pos, max int) int {
	return max
}

// OnActivateCycle implements HorizonMitigation: one sampling draw per
// activation, in activation order.
func (m *TRR) OnActivateCycle(c *Controller, flat int, rows []int, pos, n int) {
	draw := rng.NewBernoulli(m.SampleP)
	for j := 0; j < n; j++ {
		if m.src.Bernoulli(draw) {
			m.sample(flat, c.PhysRowAt(flat, rows[pos]))
		}
		if pos++; pos == len(rows) {
			pos = 0
		}
	}
}

// OnAutoRefresh implements Mitigation: refresh neighbours of all
// sampled aggressors, then clear the sampler. Slots drain in slot
// order — never in Go map order — because each neighbour refresh is
// charged time and energy sequentially, so the drain order is part of
// the simulation's determinism contract
// (TestTRRRefreshOrderDeterministic pins it).
func (m *TRR) OnAutoRefresh(c *Controller) {
	for i := 0; i < m.filled; i++ {
		v := m.sampler[i]
		c.RefreshPhysRows(v[0], []int{v[1] - 2, v[1] - 1, v[1] + 1, v[1] + 2})
	}
	m.filled = 0
	m.nextSlot = 0
}

// StorageBits implements Mitigation: entries * (bank + row address).
func (m *TRR) StorageBits() int64 { return int64(m.Entries) * 32 }

// ANVIL models the ASPLOS 2016 software defence: it samples the
// activation stream the way ANVIL samples last-level-cache-miss
// performance counters (one in SampleRate activations), keeps a short
// interval histogram, and when one row dominates the samples within an
// interval it refreshes that row's neighbours (in software: by reading
// them). Detection is statistical, so both detection latency and false
// positives are measurable, matching the paper's "promising but
// intrusive" verdict.
type ANVIL struct {
	// SampleRate samples one in this many activations.
	SampleRate int `snapshot:"config"`
	// IntervalSamples is the analysis window length in samples.
	IntervalSamples int `snapshot:"config"`
	// HotFraction: a row is flagged if it holds at least this fraction
	// of the interval's samples.
	HotFraction float64 `snapshot:"config"`

	sampleCount int64
	window      []rowKey
	Detections  int64
	flagged     map[rowKey]bool
}

type rowKey struct{ bank, logRow int }

// NewANVIL builds the detector with ANVIL-like defaults.
func NewANVIL() *ANVIL {
	return &ANVIL{SampleRate: 16, IntervalSamples: 256, HotFraction: 0.25,
		flagged: map[rowKey]bool{}}
}

// Name implements Mitigation.
func (m *ANVIL) Name() string { return "ANVIL(sw)" }

// OnActivate implements Mitigation.
func (m *ANVIL) OnActivate(c *Controller, bank, logRow int) {
	m.sampleCount++
	if m.sampleCount%int64(m.SampleRate) != 0 {
		return
	}
	m.window = append(m.window, rowKey{bank, logRow})
	if len(m.window) < m.IntervalSamples {
		return
	}
	counts := map[rowKey]int{}
	for _, k := range m.window {
		counts[k]++
	}
	// Drain the interval histogram in sorted (bank, row) order. The
	// neighbour refreshes below go through the controller and charge
	// time and energy, so draining in Go's randomized map order would
	// make multi-detection intervals irreproducible run to run — the
	// same bug class as the PR 3 TRR sampler drain (reprolint/maporder
	// keeps it from coming back).
	hot := make([]rowKey, 0, len(counts))
	for k, n := range counts { //repro:unordered keys are filtered into hot and sorted before any side effect
		if float64(n) >= m.HotFraction*float64(m.IntervalSamples) {
			hot = append(hot, k)
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].bank != hot[j].bank {
			return hot[i].bank < hot[j].bank
		}
		return hot[i].logRow < hot[j].logRow
	})
	for _, k := range hot {
		// Software cannot know physical adjacency either; it
		// touches logical neighbours. (ANVIL used ±1 and ±2.)
		c.RefreshLogRows(k.bank, []int{k.logRow - 2, k.logRow - 1, k.logRow + 1, k.logRow + 2})
		m.Detections++
		m.flagged[k] = true
	}
	m.window = m.window[:0]
}

// ActivateHorizon implements HorizonMitigation: activations are quiet
// until the one whose sample fills the interval window, which analyses
// it.
func (m *ANVIL) ActivateHorizon(c *Controller, flat int, rows []int, pos, max int) int {
	rate := int64(m.SampleRate)
	need := int64(m.IntervalSamples - len(m.window))
	if need < 1 {
		need = 1
	}
	// The first-th activation from now takes the next sample.
	first := rate - m.sampleCount%rate
	fill := first + (need-1)*rate
	return int(min(int64(max), fill-1))
}

// OnActivateCycle implements HorizonMitigation: every SampleRate-th
// activation joins the window.
func (m *ANVIL) OnActivateCycle(c *Controller, flat int, rows []int, pos, n int) {
	rate := int64(m.SampleRate)
	k := int64(len(rows))
	for j := rate - m.sampleCount%rate; j <= int64(n); j += rate {
		m.window = append(m.window, rowKey{flat, rows[(int64(pos)+j-1)%k]})
	}
	m.sampleCount += int64(n)
}

// OnAutoRefresh implements Mitigation.
func (m *ANVIL) OnAutoRefresh(c *Controller) {}

// StorageBits implements Mitigation: software tables, no hardware.
func (m *ANVIL) StorageBits() int64 { return 0 }

var (
	_ HorizonMitigation = (*PARA)(nil)
	_ HorizonMitigation = (*CRA)(nil)
	_ HorizonMitigation = (*TRR)(nil)
	_ HorizonMitigation = (*ANVIL)(nil)
)
