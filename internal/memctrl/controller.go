// Package memctrl implements the memory controller stack: pluggable
// address mapping (MappingPolicy: row-interleaved open-page,
// cache-line channel/bank-interleaved, DRAMA-style XOR bank hash), the
// per-channel Controller with its open-page access path, DDR3-class
// latency and energy accounting and periodic auto-refresh engine (whose
// rate the attachable RefreshScaling raises: the paper's "immediate
// solution"), the multi-channel MemorySystem (built by Assemble) that routes
// flat physical addresses through the active policy and rolls
// per-channel stats into aggregate accounting, and a registry of
// pluggable RowHammer mitigations — PARA in its three placements,
// counter-based detection (CRA), in-DRAM targeted-refresh sampling
// (TRR), and ANVIL-style software detection.
//
// The pluggable registry is a working miniature of the paper's central
// architectural argument: an intelligent, configurable memory
// controller can be "configured/programmed/patched to execute
// specialized functions" when a new failure mechanism is discovered.
// Every mitigation below is such a patch: none of them require
// changing the device model.
package memctrl

import (
	"fmt"
	"slices"

	"repro/internal/dram"
)

// Coord is a decoded within-rank DRAM coordinate.
type Coord struct {
	Bank, Row, Col int
}

// Config parameterizes a controller.
type Config struct {
	// DisableRefresh turns auto-refresh off entirely (used by
	// retention experiments that control refresh manually).
	DisableRefresh bool
	// ECC selects the DIMM's ECC configuration. The zero value is a
	// non-ECC DIMM, bit-identical to the pre-ECC controller.
	ECC ECCConfig
}

// Stats aggregates controller-side accounting.
type Stats struct {
	Accesses      int64
	RowHits       int64
	RowMisses     int64 // bank was closed
	RowConflicts  int64 // different row was open
	AutoRefreshes int64 // REF commands issued
	MitRefreshes  int64 // rows refreshed by mitigations
	// ECC read-path triage (zero on non-ECC controllers): corrupted
	// words whose error the code corrected, only detected, or turned
	// into silent corruption (miscorrection or undetected pattern).
	ECCCorrected int64
	ECCDetected  int64
	ECCSilent    int64
	BusyTime     dram.Time
	RefreshTime  dram.Time
	MitTime      dram.Time
}

// Add accumulates other into s (aggregate roll-up across channels).
// Time-like fields add too: they are totals of per-channel busy time,
// not wall-clock.
func (s *Stats) Add(other Stats) {
	s.Accesses += other.Accesses
	s.RowHits += other.RowHits
	s.RowMisses += other.RowMisses
	s.RowConflicts += other.RowConflicts
	s.AutoRefreshes += other.AutoRefreshes
	s.MitRefreshes += other.MitRefreshes
	s.ECCCorrected += other.ECCCorrected
	s.ECCDetected += other.ECCDetected
	s.ECCSilent += other.ECCSilent
	s.BusyTime += other.BusyTime
	s.RefreshTime += other.RefreshTime
	s.MitTime += other.MitTime
}

// Controller drives one channel: a set of identical ranks sharing the
// channel's command bus, refresh engine and mitigation registry.
type Controller struct {
	cfg   Config        `snapshot:"config"`
	geom  dram.Geometry `snapshot:"config"` // every rank's geometry
	ranks []*dram.Device

	now        dram.Time
	nextRefDue dram.Time
	refPeriod  dram.Time
	refMult    float64     // effective refresh multiplier (product of attached scalings)
	lastAct    []dram.Time // per flat bank (rank*Banks+bank), for tRC enforcement

	// ecc classifies every read against the controller's shadow words
	// (nil on non-ECC configurations; see ecc.go).
	ecc *eccLayer

	mitigations []Mitigation
	// refPolicy, when attached, replaces the uniform per-REF row sweep
	// (multi-rate refresh). It aliases an entry of mitigations, which
	// SaveState serializes.
	refPolicy autoRefreshPolicy `snapshot:"derived"`
	// run is the hammer kernel's pending device work. It is flushed
	// before the kernel returns, so it is always empty between calls
	// and never part of a snapshot.
	run   hammerRun `snapshot:"derived"`
	Stats Stats
	// kernel counts how the hammer kernel served its accesses. It is
	// observability, not simulation state: outside Stats, every table
	// and every snapshot.
	kernel KernelCounters `snapshot:"counters"`
}

// KernelCounters count how the hammer kernel (HammerRowsRanked) served
// its accesses and why it applied its pending device run. They are
// deterministic, like Stats, but describe the simulator rather than the
// simulated system, so they stay out of Stats and out of snapshots.
type KernelCounters struct {
	// Batched accesses were served in closed-form chunks.
	Batched int64
	// Stepped accesses were served one at a time: row hits and misses,
	// activations a mitigation acts on or that a mitigation without a
	// horizon observes, and row lists the kernel does not batch. An
	// activation that only changes the mitigation's own state, such as
	// a Graphene insertion or exchange, is quiet and not stepped.
	Stepped int64
	// RefsRidden counts REFs that landed on a pending run and left it
	// pending: the run carries their precharge as a gap.
	RefsRidden int64
	// RefFlushes counts pending runs a REF flushed: its rows touch the
	// run, the run's gap list is full, a multi-rate policy drives the
	// refresh, or a REF hook reads cells.
	RefFlushes int64
	// MitFlushes counts pending runs a mitigation's targeted refresh
	// flushed, at an activation or at a REF.
	MitFlushes int64
	// OtherFlushes counts the rest: the kernel's return, a row hit, and
	// an activation that does not continue the run.
	OtherFlushes int64
}

// KernelCounters returns the hammer kernel's counters.
func (c *Controller) KernelCounters() KernelCounters { return c.kernel }

// New creates a controller over one device (a single-rank channel).
func New(dev *dram.Device, cfg Config) *Controller {
	return NewMultiRank([]*dram.Device{dev}, cfg)
}

// NewMultiRank creates a controller driving a set of identical ranks.
// It panics when the rank set is empty or the ranks' geometries
// disagree.
func NewMultiRank(devs []*dram.Device, cfg Config) *Controller {
	if len(devs) == 0 {
		panic("memctrl: NewMultiRank with no ranks")
	}
	g := devs[0].Geom
	for i, d := range devs {
		if d.Geom != g {
			panic(fmt.Sprintf("memctrl: rank %d geometry %+v disagrees with rank 0 %+v", i, d.Geom, g))
		}
	}
	c := &Controller{
		cfg:     cfg,
		geom:    g,
		ranks:   devs,
		lastAct: make([]dram.Time, len(devs)*g.Banks),
	}
	if cfg.ECC.Kind != ECCNone {
		c.ecc = newECCLayer(cfg.ECC, g, len(devs))
	}
	c.refMult = 1
	c.refPeriod = devs[0].Timing.TREFI
	c.nextRefDue = c.refPeriod
	return c
}

// Rank returns the device behind the given rank index.
func (c *Controller) Rank(i int) *dram.Device { return c.ranks[i] }

// NumRanks returns how many ranks the controller drives.
func (c *Controller) NumRanks() int { return len(c.ranks) }

// Now returns the current simulated time.
func (c *Controller) Now() dram.Time { return c.now }

// RefreshPeriod returns the effective tREFI: the nominal interval
// scaled by every attached RefreshScaling. An
// attacker can measure it from outside through REF-induced latency
// spikes (the SMASH/Blacksmith synchronization primitive), so exposing
// it grants no power a user-level program lacks.
func (c *Controller) RefreshPeriod() dram.Time { return c.refPeriod }

// NextRefreshDue returns when the next REF command comes due. The
// refresh-sync attack strategy uses it to align hammer bursts to the
// refresh schedule it has (in the real attack) inferred from timing.
func (c *Controller) NextRefreshDue() dram.Time { return c.nextRefDue }

// ECCEnabled reports whether the controller has an ECC layer attached.
// Offline classification passes (attack.MiscorrectionHunt) use it to
// refuse systems whose reads would be ECC-filtered.
func (c *Controller) ECCEnabled() bool { return c.ecc != nil }

// refreshScaler is the hook through which an attached mitigation
// multiplies the controller's refresh rate (RefreshScaling implements
// it).
type refreshScaler interface{ RefreshFactor() float64 }

// autoRefreshPolicy is the hook through which an attached mitigation
// replaces the controller's uniform per-REF row sweep with its own row
// schedule (MultiRateRefresh implements it). bind is called at attach
// time to validate the policy against the controller's topology;
// serviceREF refreshes this REF command's due rows on every rank and
// returns how many rows it refreshed versus the uniform sweep's
// nominal budget, which scales the REF's tRFC busy-time charge.
type autoRefreshPolicy interface {
	bind(c *Controller)
	serviceREF(c *Controller) (refreshed, nominal int64)
}

// Attach registers a mitigation. Mitigations see every activate on
// every rank; the bank index they observe is the flat rank*Banks+bank,
// which equals the plain bank index on single-rank channels.
//
// A mitigation exposing a RefreshFactor (RefreshScaling) multiplies
// the refresh rate on attach, stacking with any scaling already
// attached; the next REF comes due one new period from the current
// time, so attach it before any traffic to run the whole simulation at
// the scaled rate.
func (c *Controller) Attach(m Mitigation) {
	c.mitigations = append(c.mitigations, m)
	if sc, ok := m.(*Scrubber); ok {
		sc.bind(c)
	}
	if rp, ok := m.(autoRefreshPolicy); ok {
		if c.refPolicy != nil {
			panic("memctrl: a refresh policy is already attached; only one row schedule can drive the refresh engine")
		}
		rp.bind(c)
		c.refPolicy = rp
	}
	if rs, ok := m.(refreshScaler); ok {
		if f := rs.RefreshFactor(); f > 0 {
			c.refMult *= f
			c.refPeriod = dram.Time(float64(c.refPeriod) / f)
			if c.refPeriod < 1 {
				c.refPeriod = 1
			}
			c.nextRefDue = c.now + c.refPeriod
		}
	}
}

// Mitigations returns the attached mitigations.
func (c *Controller) Mitigations() []Mitigation { return c.mitigations }

// splitFlatBank decodes a flat rank*Banks+bank index.
func (c *Controller) splitFlatBank(flat int) (rank, bank int) {
	return flat / c.geom.Banks, flat % c.geom.Banks
}

// PhysRowAt translates a logical row to its physical row on the rank
// behind the given flat bank index (mitigation adjacency lookups).
func (c *Controller) PhysRowAt(flatBank, logRow int) int {
	rank, _ := c.splitFlatBank(flatBank)
	return c.ranks[rank].PhysRow(logRow)
}

// serviceRefresh issues any REF commands that have come due. Refresh
// stalls the channel for tRFC each, which is how the refresh-rate
// solution's performance overhead arises. Ranks refresh in lockstep:
// one REF event services every rank.
//
// A REF that lands on the hammer kernel's pending run leaves it pending
// when nothing the REF does can see or change what the run does (see
// rideREF): the run then owes the REF's precharge of its bank.
func (c *Controller) serviceRefresh() {
	if c.cfg.DisableRefresh || c.now < c.nextRefDue {
		return
	}
	r := &c.run
	for c.now >= c.nextRefDue {
		if r.n > 0 && !c.rideREF() {
			c.flushHammer(&c.kernel.RefFlushes)
		}
		// REF requires all banks precharged.
		for rank, dev := range c.ranks {
			for b := 0; b < c.geom.Banks; b++ {
				if r.n == 0 || rank != r.rank || b != r.bank {
					dev.Precharge(b)
				}
			}
			if c.refPolicy == nil {
				dev.AutoRefresh(c.now)
			}
		}
		c.Stats.AutoRefreshes++
		// tRFC steals bandwidth within the tREFI budget rather than
		// stretching it; it is charged as busy time, the quantity the
		// refresh-burden experiment reports as throughput loss. A
		// multi-rate policy refreshes a subset of the nominal per-REF
		// row budget, and its REF occupies the proportional tRFC share
		// — the bandwidth half of RAIDR's savings.
		if c.refPolicy != nil {
			refreshed, nominal := c.refPolicy.serviceREF(c)
			if nominal > 0 {
				c.Stats.RefreshTime += dram.Time(float64(c.ranks[0].Timing.TRFC) * float64(refreshed) / float64(nominal))
			}
		} else {
			c.Stats.RefreshTime += c.ranks[0].Timing.TRFC
		}
		c.nextRefDue += c.refPeriod
		for _, m := range c.mitigations {
			m.OnAutoRefresh(c)
		}
		if r.n > 0 {
			c.kernel.RefsRidden++
		}
	}
}

// rideREF decides whether the REF about to issue leaves the pending run
// pending, and if so records the REF as the run's trailing gap. It
// refuses when a multi-rate policy drives the refresh, when the gap
// list is full, or when the run's device reports that the REF's rows
// touch the run. A REF hook that reads cells flushes the run itself.
func (c *Controller) rideREF() bool {
	r := &c.run
	if c.refPolicy != nil || !r.owed && r.ngaps == len(r.gaps) ||
		c.ranks[r.rank].AutoRefreshTouches(r.bank, r.phys, c.now) {
		return false
	}
	if !r.owed {
		r.gaps[r.ngaps] = dram.Gap{At: r.n}
		r.ngaps++
		r.owed = true
	}
	return true
}

// AccessLoc routes a system-level location to its rank. The location's
// Channel field is ignored: the MemorySystem has already routed the
// request to this channel's controller.
func (c *Controller) AccessLoc(l Loc, write bool, data uint64) (uint64, dram.Time) {
	return c.AccessRanked(l.Rank, l.Coord(), write, data)
}

// AccessRanked performs one 64-bit read or write at a coordinate on the
// given rank and returns the read data (reads echo the stored word;
// writes return the written word) plus the access latency.
func (c *Controller) AccessRanked(rank int, co Coord, write bool, data uint64) (uint64, dram.Time) {
	c.serviceRefresh()
	start := c.now
	dev := c.ranks[rank]
	t := dev.Timing
	open := dev.OpenRow(co.Bank)
	phys := dev.PhysRow(co.Row)
	flat := rank*c.geom.Banks + co.Bank
	switch {
	case open == phys:
		c.Stats.RowHits++
		c.now += t.TCL + t.TBURST
	case open == -1:
		c.Stats.RowMisses++
		c.activate(rank, co.Bank, co.Row)
		c.now += t.TRCD + t.TCL + t.TBURST
	default:
		c.Stats.RowConflicts++
		// Respect the row cycle time between ACTs to the same bank.
		if since := c.now - c.lastAct[flat]; since < t.TRC {
			c.now += t.TRC - since
		}
		dev.Precharge(co.Bank)
		c.activate(rank, co.Bank, co.Row)
		c.now += t.TRP + t.TRCD + t.TCL + t.TBURST
	}
	var out uint64
	if write {
		dev.Write(co.Bank, co.Col, data)
		if c.ecc != nil {
			c.ecc.onWrite(rank, co.Bank, phys, co.Col, data)
		}
		out = data
	} else {
		out = dev.Read(co.Bank, co.Col)
		if c.ecc != nil {
			out = c.ecc.onRead(&c.Stats, rank, co.Bank, phys, co.Col, out)
		}
	}
	c.Stats.Accesses++
	c.Stats.BusyTime += c.now - start
	return out, c.now - start
}

func (c *Controller) activate(rank, bank, logRow int) {
	dev := c.ranks[rank]
	dev.Activate(bank, logRow, c.now)
	flat := rank*c.geom.Banks + bank
	c.lastAct[flat] = c.now
	for _, m := range c.mitigations {
		m.OnActivate(c, flat, logRow)
	}
}

// HammerPairsRanked performs `pairs` alternating single-word read
// accesses to col 0 of rowA and rowB in one bank of one rank — the
// double-sided hammer access pattern: the two-row call of
// HammerRowsRanked.
func (c *Controller) HammerPairsRanked(rank, bank, rowA, rowB, pairs int) {
	c.HammerRowsRanked(rank, bank, []int{rowA, rowB}, pairs)
}

// HammerRowsRanked performs `rounds` rounds of single-word read
// accesses to col 0 of each of rows in order, in one bank of one rank —
// the many-sided hammer access pattern. It is behaviourally identical
// to the equivalent AccessRanked loop (same timing, refresh
// interleaving, mitigation hooks and random draws, stats, ECC triage
// and fault physics, bit for bit).
//
// In the steady row-conflict state the kernel serves accesses in
// closed-form chunks: timing, Stats and the ECC reads advance by
// arithmetic, each mitigation applies the chunk's activations in bulk
// (HorizonMitigation.OnActivateCycle), and the activations join a
// pending device run. A chunk ends at the access whose REF-due check
// fires or at the minimum activation horizon over the attached
// mitigations, whichever comes first; a mitigation without a horizon
// has horizon 0. The access after a chunk — a row hit or miss, the
// activation a mitigation acts on — steps through the access path,
// with every mitigation's OnActivate at the exact c.now. The pending
// run is applied by Device.HammerCycle, one call per fault-model
// horizon, when something needs the device state: a REF whose rows
// touch the run, a mitigation's targeted refresh, or the kernel's
// return. A REF that touches nothing the run touches leaves it pending
// (serviceRefresh), and the row miss after it joins the run as a gap.
// Inputs the kernel does not batch — fewer than two rows, a repeated
// row, out-of-range rows — run the plain AccessRanked loop.
func (c *Controller) HammerRowsRanked(rank, bank int, rows []int, rounds int) {
	if !c.cycleRows(rank, rows) {
		c.kernel.Stepped += int64(len(rows) * max(rounds, 0))
		for i := 0; i < rounds; i++ {
			for _, row := range rows {
				c.AccessRanked(rank, Coord{Bank: bank, Row: row}, false, 0)
			}
		}
		return
	}
	r := &c.run
	r.rank, r.bank = rank, bank
	dev := c.ranks[rank]
	flat := rank*c.geom.Banks + bank
	t := dev.Timing
	// In the steady row-conflict state every access activates exactly
	// max(tRC, tRP+tRCD+tCL+tBURST) after the previous activation and
	// occupies the bus for tRP+tRCD+tCL+tBURST after it.
	s := t.TRP + t.TRCD + t.TCL + t.TBURST
	period := max(t.TRC, s)
	k := len(rows)
	open := dev.OpenRow(bank) // as of the pending run's last activation
	// lastAct[flat] lives in a local for the kernel's duration: only
	// the access path reads it, and a store per access to a slice
	// shared in cache with other channels' controllers is slow.
	lastAct := c.lastAct[flat]
	for i, left := 0, k*rounds; left > 0; {
		if !c.cfg.DisableRefresh && c.now >= c.nextRefDue {
			// The REF closed the bank, on the device or as a precharge
			// the pending run owes.
			c.serviceRefresh()
			open = -1
		}
		if open != -1 && open != r.phys[i] {
			// Closed form up to the access whose REF-due check fires
			// (access j of the chunk starts at act0+(j-1)*period+s) and
			// the mitigations' quiet horizon.
			act0 := max(c.now, lastAct+t.TRC)
			m := left
			if !c.cfg.DisableRefresh {
				fit := 1
				if act0+s < c.nextRefDue {
					fit = int(uint64(c.nextRefDue-1-(act0+s))/uint64(period)) + 2
				}
				m = min(m, fit)
			}
			if m = c.quietHorizon(flat, i, m); m > 0 {
				c.addToRun(i, act0, period, m)
				r.reads = r.n
				for _, mit := range c.mitigations {
					mit.(HorizonMitigation).OnActivateCycle(c, flat, r.rows, i, m)
				}
				lastAct = act0 + dram.Time(m-1)*period
				c.Stats.Accesses += int64(m)
				c.Stats.RowConflicts += int64(m)
				c.Stats.BusyTime += lastAct + s - c.now
				c.now = lastAct + s
				c.kernel.Batched += int64(m)
				i = (i + m) % k
				open = r.phys[(i+k-1)%k]
				left -= m
				continue
			}
		}
		c.kernel.Stepped++
		if open == r.phys[i] {
			// Only the first access can hit; the hit path has no device
			// work to defer.
			c.flushHammer(&c.kernel.OtherFlushes)
			c.lastAct[flat] = lastAct
			c.AccessRanked(rank, Coord{Bank: bank, Row: r.rows[i]}, false, 0)
			lastAct = c.lastAct[flat]
		} else {
			start := c.now
			if open == -1 {
				c.Stats.RowMisses++
			} else {
				c.Stats.RowConflicts++
				c.now = max(c.now, lastAct+t.TRC)
			}
			lastAct = c.now
			c.hammerActivate(dev, flat, i)
			if open == -1 {
				c.now += t.TRCD + t.TCL + t.TBURST
			} else {
				c.now += s
			}
			c.Stats.Accesses++
			c.Stats.BusyTime += c.now - start
			open = r.phys[i]
		}
		if i++; i == k {
			i = 0
		}
		left--
	}
	c.lastAct[flat] = lastAct
	c.flushHammer(&c.kernel.OtherFlushes)
}

// quietHorizon returns how many of the kernel's next activations, at
// most max and starting at cycle position i, every attached mitigation
// observes quietly: the minimum of their activation horizons, 0 if one
// lacks the interface.
func (c *Controller) quietHorizon(flat, i, max int) int {
	for _, m := range c.mitigations {
		hm, ok := m.(HorizonMitigation)
		if !ok {
			return 0
		}
		if max = min(max, hm.ActivateHorizon(c, flat, c.run.rows, i, max)); max <= 0 {
			return 0
		}
	}
	return max
}

// cycleRows loads the kernel's rows into the pending run and reports
// whether the kernel can batch them: at least two distinct in-range
// rows.
func (c *Controller) cycleRows(rank int, rows []int) bool {
	if len(rows) < 2 {
		return false
	}
	r := &c.run
	r.rows = append(r.rows[:0], rows...)
	r.phys = r.phys[:0]
	for _, row := range rows {
		if row < 0 || row >= c.geom.Rows {
			return false
		}
		p := c.ranks[rank].PhysRow(row)
		if slices.Contains(r.phys, p) {
			return false
		}
		r.phys = append(r.phys, p)
	}
	return true
}

// hammerActivate is the kernel's form of activate: the activation of
// cycle position i at c.now joins the pending run, and every
// mitigation observes it exactly as it would on the access path. The
// access's read is accounted with the run unless a mitigation flushed
// the run; then the device is current and the read is classified now,
// after the mitigation's refreshes, as the access path orders it.
func (c *Controller) hammerActivate(dev *dram.Device, flat, i int) {
	r := &c.run
	c.addToRun(i, c.now, 0, 1)
	for _, m := range c.mitigations {
		m.OnActivate(c, flat, r.rows[i])
	}
	if r.n > 0 {
		r.reads = r.n
	} else if c.ecc != nil {
		c.ecc.onReads(&c.Stats, r.rank, r.bank, r.phys[i], 0, dev.PhysRowWords(r.bank, r.phys[i])[0], 1)
	}
}

// flushHammer applies the pending run to the device, classifies its
// reads through the ECC layer and counts the flush in cause. Within
// each HammerCycle chunk the hammered rows' words cannot change, so
// each row's col-0 word is classified once per chunk and counted once
// per read.
func (c *Controller) flushHammer(cause *int64) {
	r := &c.run
	if r.n == 0 {
		return
	}
	*cause++
	dev := c.ranks[r.rank]
	k := len(r.rows)
	cy := dram.Cycle{
		Bank: r.bank, Rows: r.rows, Pos: r.pos, N: r.n,
		Start: r.start, Period: r.period, Read: true, Gaps: r.gaps[:r.ngaps],
	}
	for done := 0; done < r.n; {
		pos := cy.Pos
		m := dev.HammerCycle(cy)
		if c.ecc != nil {
			reads := min(m, r.reads-done)
			for j := 0; j < k && j < reads; j++ {
				p := r.phys[(pos+j)%k]
				n := (reads - j + k - 1) / k
				c.ecc.onReads(&c.Stats, r.rank, r.bank, p, 0, dev.PhysRowWords(r.bank, p)[0], int64(n))
			}
		}
		done += m
		cy.Advance(m)
	}
	r.n, r.reads, r.ngaps, r.owed = 0, 0, 0, false
}

// maxGaps bounds how many REFs one pending run rides; a REF that finds
// the gap list full flushes the run.
const maxGaps = 16

// hammerRun is the hammer kernel's pending device work: n activations
// of rows in cyclic order, the first at cycle position pos at time
// start, each period after the previous unless a gap starts it; last
// is the time of the latest and next the cycle position that continues
// it. The first `reads` of them have had their col-0 read issued. Each
// gap is a REF the run rode; owed says the latest one came after the
// last activation, whose bank the REF precharged on the run's account.
type hammerRun struct {
	rank, bank    int
	rows, phys    []int // logical and physical rows of the cycle
	pos, n, next  int
	reads         int
	start, period dram.Time
	last          dram.Time
	gaps          [maxGaps]dram.Gap
	ngaps         int
	owed          bool
}

// addToRun appends m activations to the pending run, the first of
// cycle position i at time at and the rest period apart. A run holds
// one period, set by its first two consecutive activations; the
// activation after a REF the run rode fills that gap, and other
// activations that do not continue the run flush it and start a new
// one.
func (c *Controller) addToRun(i int, at, period dram.Time, m int) {
	r := &c.run
	if r.n > 0 && i == r.next {
		if r.owed {
			if m == 1 {
				r.gaps[r.ngaps-1].Start = at
				r.owed = false
				r.extend(at, 1)
				return
			}
		} else {
			step := r.period
			if step == 0 {
				step = at - r.last
			}
			if step > 0 && at == r.last+step && (m == 1 || period == step) {
				r.period = step
				r.extend(at+dram.Time(m-1)*step, m)
				return
			}
		}
	}
	c.flushHammer(&c.kernel.OtherFlushes)
	r.pos, r.start, r.n, r.next, r.last = i, at, 0, i, at
	r.period = 0
	if m > 1 {
		r.period = period
	}
	r.extend(at+dram.Time(m-1)*period, m)
}

// extend counts m more activations, the last at time last, and moves
// the continuing cycle position on.
func (r *hammerRun) extend(last dram.Time, m int) {
	r.n += m
	r.last = last
	if r.next += m; r.next >= len(r.rows) {
		r.next %= len(r.rows)
	}
}

// AdvanceTo moves idle time forward to at least t, servicing refresh
// on the way. Time never moves backwards.
func (c *Controller) AdvanceTo(t dram.Time) {
	if t > c.now {
		c.now = t
	}
	c.serviceRefresh()
}

// RefreshLogRows refreshes the given logical rows on behalf of a
// mitigation, charging the targeted-refresh time cost. flatBank is the
// flat rank*Banks+bank index mitigations observe.
func (c *Controller) RefreshLogRows(flatBank int, logRows []int) {
	c.flushHammer(&c.kernel.MitFlushes)
	rank, bank := c.splitFlatBank(flatBank)
	dev := c.ranks[rank]
	for _, r := range logRows {
		if r < 0 || r >= c.geom.Rows {
			continue
		}
		dev.RefreshLogRow(bank, r, c.now)
		c.chargeMitRefresh()
	}
}

// RefreshPhysRows refreshes the given physical rows on behalf of a
// DRAM-side mitigation that knows true adjacency. flatBank is the flat
// rank*Banks+bank index mitigations observe.
func (c *Controller) RefreshPhysRows(flatBank int, physRows []int) {
	c.flushHammer(&c.kernel.MitFlushes)
	rank, bank := c.splitFlatBank(flatBank)
	dev := c.ranks[rank]
	for _, r := range physRows {
		if r < 0 || r >= c.geom.Rows {
			continue
		}
		dev.RefreshPhysRow(bank, r, c.now)
		c.chargeMitRefresh()
	}
}

func (c *Controller) chargeMitRefresh() {
	c.Stats.MitRefreshes++
	c.now += c.ranks[0].Timing.TRC
	c.Stats.MitTime += c.ranks[0].Timing.TRC
}

// RefsPerRetentionWindow returns how many REF commands the controller
// issues per nominal retention window (tREFW) under its effective
// refresh rate: 8192 at the nominal rate, scaled up by the refresh
// multiplier. Window-based mitigations that count REF commands derive
// their reset cadence from it rather than hardcoding 8192, which would
// silently shrink their window whenever the refresh rate is raised.
func (c *Controller) RefsPerRetentionWindow() int64 {
	return int64(float64(c.ranks[0].Timing.RetentionWindow())/float64(c.refPeriod) + 0.5)
}

// RetentionWindow returns the effective per-row refresh period under
// the effective refresh multiplier (see RefreshMultiplier).
func (c *Controller) RetentionWindow() dram.Time {
	return dram.Time(float64(c.ranks[0].Timing.RetentionWindow()) / c.refMult)
}

// RefreshMultiplier returns the effective refresh-rate multiplier: the
// product of every attached RefreshScaling factor, 1 when none is
// attached.
func (c *Controller) RefreshMultiplier() float64 { return c.refMult }

// EnergyPJ returns total energy consumed so far: operation energy of
// every rank plus per-rank background power integrated over elapsed
// time.
func (c *Controller) EnergyPJ() float64 {
	elapsedSec := float64(c.now) / float64(dram.Second)
	total := 0.0
	for _, dev := range c.ranks {
		total += dev.Stats.OpEnergyPJ + dev.Energy.BackgroundW*elapsedSec*1e12
	}
	return total
}

// String summarizes controller state for logs.
func (c *Controller) String() string {
	return fmt.Sprintf("memctrl{t=%dns acc=%d hit=%d conf=%d ref=%d mit=%d}",
		c.now, c.Stats.Accesses, c.Stats.RowHits, c.Stats.RowConflicts,
		c.Stats.AutoRefreshes, c.Stats.MitRefreshes)
}
