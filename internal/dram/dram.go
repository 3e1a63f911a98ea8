// Package dram models a DRAM device at the granularity the RowHammer
// and retention studies need: banks of rows of real data bits, an
// activate/precharge/read/write/refresh command interface, DDR3-class
// timing and energy parameters for cost accounting, internal row
// remapping (post-manufacturing repair), and a fault-model hook
// interface through which the disturbance (RowHammer) and retention
// models corrupt cell contents exactly when a real chip would.
//
// The device is a behavioural model, not a cycle-accurate one: it
// enforces command legality (you cannot read a closed bank) and
// exposes timing/energy constants that the memory controller uses for
// latency and energy accounting, but it does not pipeline commands.
// That is sufficient for every experiment in the paper, all of which
// depend on which cells flip and when, not on bus scheduling detail.
package dram

import "fmt"

// Time is simulated time in nanoseconds since system start.
type Time uint64

const (
	// Nanosecond is the base unit of simulated Time.
	Nanosecond Time = 1
	// Microsecond is 1000 ns of simulated time.
	Microsecond = 1000 * Nanosecond
	// Millisecond is 1e6 ns of simulated time.
	Millisecond = 1000 * Microsecond
	// Second is 1e9 ns of simulated time.
	Second = 1000 * Millisecond
)

// Geometry describes the dimensions of one DRAM device (one rank).
type Geometry struct {
	Banks int // independent banks
	Rows  int // rows per bank (logical row address space)
	Cols  int // 64-bit words per row
}

// BitsPerRow returns the number of data bits in one row.
func (g Geometry) BitsPerRow() int { return g.Cols * 64 }

// TotalCells returns the number of cells (bits) in the device.
func (g Geometry) TotalCells() int64 {
	return int64(g.Banks) * int64(g.Rows) * int64(g.BitsPerRow())
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	if g.Banks <= 0 || g.Rows <= 0 || g.Cols <= 0 {
		return fmt.Errorf("dram: invalid geometry %+v", g)
	}
	return nil
}

// Timing holds the DDR3-class timing parameters (in nanoseconds) that
// the memory controller uses for latency accounting. Values default to
// a DDR3-1600-like part via DefaultTiming.
type Timing struct {
	TRCD   Time // ACT to internal read/write
	TRP    Time // PRE to ACT
	TRAS   Time // ACT to PRE minimum
	TCL    Time // read column access strobe latency
	TBURST Time // data burst duration (BL8)
	TREFI  Time // average periodic refresh command interval
	TRFC   Time // refresh command duration
	TRC    Time // ACT to ACT, same bank (row cycle)
}

// DefaultTiming returns DDR3-1600 K4B4G0846-class timing.
func DefaultTiming() Timing {
	return Timing{
		TRCD:   14,
		TRP:    14,
		TRAS:   35,
		TCL:    14,
		TBURST: 5,
		TREFI:  7800, // 7.8 us -> 8192 REFs per 64 ms
		TRFC:   260,
		TRC:    49,
	}
}

// RetentionWindow returns the time in which every row is refreshed
// once under the standard 8192-REF scheme: tREFI * 8192.
func (t Timing) RetentionWindow() Time { return t.TREFI * 8192 }

// Energy holds per-operation energy costs in picojoules, used for the
// refresh-burden and mitigation-overhead experiments. Values are
// DDR3-class magnitudes; experiments depend on their ratios, not on
// matching a specific datasheet.
type Energy struct {
	ACT         float64 // one activate+precharge pair, pJ
	RD          float64 // one 64-byte read burst, pJ
	WR          float64 // one 64-byte write burst, pJ
	REFPerRow   float64 // refreshing one row, pJ
	BackgroundW float64 // standby power, watts
}

// DefaultEnergy returns DDR3-class per-operation energies.
func DefaultEnergy() Energy {
	return Energy{ACT: 2500, RD: 1600, WR: 1700, REFPerRow: 1100, BackgroundW: 0.10}
}

// Stats counts device activity and accumulated operation energy.
type Stats struct {
	Activates    int64
	Precharges   int64
	Reads        int64
	Writes       int64
	RowRefreshes int64
	OpEnergyPJ   float64
}

// FaultModel is the hook through which physical failure mechanisms
// (disturbance, retention loss) corrupt cell contents. The device
// invokes the hooks with *physical* row numbers; fault models mutate
// cells through Device.FlipPhysBit and friends.
//
// OnActivate is called when a physical row's word line is raised; the
// row's charge is subsequently fully restored (activation refreshes
// the row), so models should apply any pending decay first and then
// treat the row as refreshed. OnRefresh is called for explicit refresh
// operations with identical semantics.
type FaultModel interface {
	// Name identifies the model in logs and stats.
	Name() string
	// OnActivate is invoked before the row's charge restore completes.
	OnActivate(d *Device, bank, physRow int, now Time)
	// OnRefresh is invoked before the row's charge restore completes.
	OnRefresh(d *Device, bank, physRow int, now Time)
}

// HammerFaultModel is the pair-and-row batching extension of FaultModel
// that predates CycleFaultModel. The device no longer dispatches
// through it; it stays because instrumentation that wraps fault models
// forwards these methods.
//
// Batching contract: OnActivateBatch(bank, row, n, start, period) must
// leave the model and the device bits in exactly the state n
// consecutive OnActivate(bank, row, t) calls at t = start, start+period,
// ..., start+(n-1)*period would — bit-identical floats included.
// OnHammerPairBatch(bank, rowA, rowB, n, ...) must equal n repetitions
// of {OnActivate(rowA); OnActivate(rowB)} with the same activation
// spacing. BatchableRow (or BatchablePair) reports whether the model
// can guarantee that; both must be side-effect free.
type HammerFaultModel interface {
	FaultModel
	// BatchableRow reports whether a single-row burst of physRow can be
	// applied batched.
	BatchableRow(bank, physRow int) bool
	// OnActivateBatch applies n consecutive activations of physRow.
	OnActivateBatch(d *Device, bank, physRow, n int, start, period Time)
	// BatchablePair reports whether an alternating rowA/rowB burst can
	// be applied batched.
	BatchablePair(bank, rowA, rowB int) bool
	// OnHammerPairBatch applies n alternating activation pairs.
	OnHammerPairBatch(d *Device, bank, rowA, rowB, n int, start, period Time)
}

// CycleFaultModel is the optional batched-dispatch extension of
// FaultModel used by HammerCycle. A hammer cycle activates a list of
// distinct physical rows in cyclic order: activation i hits
// physRows[i%len(physRows)] at time start+i*period.
//
// Horizon contract: HammerHorizon returns how many leading activations
// of the cycle the model can apply in one OnHammerCycle call (any
// value >= the burst length means "all of them"), and must be
// side-effect free. Applying h <= horizon activations through
// OnHammerCycle must leave the model and the device bits in exactly
// the state h consecutive OnActivate calls would — bit-identical floats
// and random draws included — and, because the device dispatches the
// chunk model by model instead of activation by activation, the model
// may within a horizon change bits only outside the cycle's rows and
// let no bit it reads outside them change its decisions. A horizon of
// 0 makes the device apply the next activation through plain
// per-model OnActivate dispatch and ask again; a model must report a
// positive horizon again within one round of the cycle.
type CycleFaultModel interface {
	FaultModel
	// HammerHorizon returns how many leading activations of the cycle
	// can be applied batched.
	HammerHorizon(d *Device, bank int, physRows []int, start, period Time) int
	// OnHammerCycle applies the first n activations of the cycle.
	OnHammerCycle(d *Device, bank int, physRows []int, n int, start, period Time)
}

// Device is one DRAM rank: banks of rows of real bits plus fault
// hooks, remapping, and accounting.
type Device struct {
	Geom   Geometry
	Timing Timing `snapshot:"config"`
	Energy Energy `snapshot:"config"`
	Stats  Stats

	banks []*bank
	// faults are attached models, configuration here; their mutable
	// state (pressure, decay, VRT) is serialized by their owners.
	faults []FaultModel `snapshot:"config"`
	remap  *RemapTable

	refreshPtr int // next row group for auto-refresh

	// cycle is HammerCycle's scratch for the physical rows of a burst,
	// rebuilt on every call; inCycle marks them while HammerCycle checks
	// that they are distinct, and is all false between calls.
	cycle   []int  `snapshot:"derived"`
	inCycle []bool `snapshot:"derived"`
}

// bank holds its cells in one slab, row-major: row r is
// cells[r*cols:(r+1)*cols]. One allocation per bank, physically
// consecutive rows stay cache-adjacent, and a row is found without a
// per-row slice header.
type bank struct {
	cells       []uint64
	cols        int
	openPhysRow int // -1 when precharged
	lastRestore []Time
}

// row returns the words of physical row r, capped at the row's end. The
// reslice form keeps it cheap enough for PhysRowWords to inline.
func (bk *bank) row(r int) []uint64 {
	return bk.cells[r*bk.cols:][:bk.cols:bk.cols]
}

// NewDevice builds a device with the given geometry and default
// timing/energy. All cells start at 0 and all rows precharged.
func NewDevice(g Geometry) *Device {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	d := &Device{
		Geom:   g,
		Timing: DefaultTiming(),
		Energy: DefaultEnergy(),
		remap:  IdentityRemap(g.Rows),
	}
	for b := 0; b < g.Banks; b++ {
		d.banks = append(d.banks, &bank{
			cells:       make([]uint64, g.Rows*g.Cols),
			cols:        g.Cols,
			openPhysRow: -1,
			lastRestore: make([]Time, g.Rows),
		})
	}
	return d
}

// AttachFault registers a fault model. Models are invoked in
// registration order.
func (d *Device) AttachFault(f FaultModel) { d.faults = append(d.faults, f) }

// SetRemap installs an internal logical→physical row remap table,
// modelling post-manufacturing repair. It panics if the table does not
// cover the device's rows.
func (d *Device) SetRemap(rt *RemapTable) {
	if rt.Rows() != d.Geom.Rows {
		panic(fmt.Sprintf("dram: remap table covers %d rows, device has %d", rt.Rows(), d.Geom.Rows))
	}
	d.remap = rt
}

// Remap returns the device's internal remap table.
func (d *Device) Remap() *RemapTable { return d.remap }

// PhysRow translates a logical row address to its physical row.
func (d *Device) PhysRow(logRow int) int { return d.remap.Phys(logRow) }

func (d *Device) bank(b int) *bank {
	if b < 0 || b >= len(d.banks) {
		panic(fmt.Sprintf("dram: bank %d out of range", b))
	}
	return d.banks[b]
}

// restore applies fault hooks for a word-line raise and then marks the
// row's charge as fully restored at time now. With no fault model
// attached the dispatch loop is skipped entirely.
func (d *Device) restore(b, physRow int, now Time, activate bool) {
	if len(d.faults) == 0 {
		d.banks[b].lastRestore[physRow] = now
		return
	}
	for _, f := range d.faults {
		if activate {
			f.OnActivate(d, b, physRow, now)
		} else {
			f.OnRefresh(d, b, physRow, now)
		}
	}
	d.banks[b].lastRestore[physRow] = now
}

// Activate opens the given logical row in a bank. The bank must be
// precharged. Activation senses and fully restores the row's charge,
// so it also acts as a refresh of that row.
func (d *Device) Activate(b, logRow int, now Time) {
	bk := d.bank(b)
	if bk.openPhysRow != -1 {
		panic(fmt.Sprintf("dram: ACT to bank %d with row %d already open", b, bk.openPhysRow))
	}
	if logRow < 0 || logRow >= d.Geom.Rows {
		panic(fmt.Sprintf("dram: ACT row %d out of range", logRow))
	}
	phys := d.remap.Phys(logRow)
	d.restore(b, phys, now, true)
	bk.openPhysRow = phys
	d.Stats.Activates++
	d.Stats.OpEnergyPJ += d.Energy.ACT
}

// Precharge closes the open row of a bank. Precharging an already
// precharged bank is a no-op, as PREA semantics allow.
func (d *Device) Precharge(b int) {
	bk := d.bank(b)
	if bk.openPhysRow != -1 {
		bk.openPhysRow = -1
		d.Stats.Precharges++
	}
}

// OpenRow returns the physical row currently open in bank b, or -1.
func (d *Device) OpenRow(b int) int { return d.bank(b).openPhysRow }

// --- Batched hammer path ---

// Cycle describes a hammer burst for HammerCycle: N activations of the
// distinct logical rows Rows in cyclic order, starting with Rows[Pos]
// at time Start, each Period after the previous one.
type Cycle struct {
	Bank  int
	Rows  []int
	Pos   int
	N     int
	Start Time
	// Period is the spacing of consecutive activations; it is unused
	// when N is 1.
	Period Time
	// ClosedPage precharges after every activation, the shape of the
	// SoftMC kernel {ACT a; PRE; ACT b; PRE}: the bank must be
	// precharged on entry and is left precharged. Otherwise every
	// activation first precharges the open row, if any, the way an
	// open-page controller's row-conflict path does, and the bank is
	// left open on the last activated row.
	ClosedPage bool
	// Read accounts one column-read burst after every activation. The
	// data is not transferred; callers that need it read the row words.
	Read bool
}

// HammerCycle applies the leading activations of a hammer burst and
// returns how many it applied: at least one when cy.N > 0, so callers
// loop until the burst is consumed. The result is behaviourally
// identical to issuing each activation through Precharge/Activate (and
// Read) in order — bits, fault-model state, restore clocks, stats and
// energy. Batched energy accounting adds n*cost in one operation, which
// is bit-identical to n separate additions as long as the Energy
// constants are integral picojoules (the defaults are) and the running
// total stays below 2^53.
//
// When every attached fault model implements CycleFaultModel the call
// applies as many activations as the smallest horizon allows in one
// dispatch per model. A horizon of 0, or a model without the
// extension, makes it apply exactly one activation through the
// per-activation path.
func (d *Device) HammerCycle(cy Cycle) int {
	if cy.N <= 0 {
		return 0
	}
	bk := d.bank(cy.Bank)
	if cy.ClosedPage && bk.openPhysRow != -1 {
		panic(fmt.Sprintf("dram: closed-page HammerCycle on bank %d with row %d open", cy.Bank, bk.openPhysRow))
	}
	k := len(cy.Rows)
	phys := d.cycle[:0]
	for i := 0; i < k; i++ {
		r := cy.Rows[(cy.Pos+i)%k]
		if r < 0 || r >= d.Geom.Rows {
			panic(fmt.Sprintf("dram: HammerCycle row %d out of range", r))
		}
		phys = append(phys, d.remap.Phys(r))
	}
	d.cycle = phys
	if d.inCycle == nil {
		d.inCycle = make([]bool, d.Geom.Rows)
	}
	for _, p := range phys {
		if d.inCycle[p] {
			for _, q := range phys {
				d.inCycle[q] = false
			}
			panic(fmt.Sprintf("dram: HammerCycle rows alias physical row %d", p))
		}
		d.inCycle[p] = true
	}
	for _, p := range phys {
		d.inCycle[p] = false
	}
	h := cy.N
	for _, f := range d.faults {
		cf, ok := f.(CycleFaultModel)
		if !ok {
			h = 0
			break
		}
		if fh := cf.HammerHorizon(d, cy.Bank, phys, cy.Start, cy.Period); fh < h {
			h = fh
		}
		if h == 0 {
			break
		}
	}
	if h == 0 {
		if !cy.ClosedPage {
			d.Precharge(cy.Bank)
		}
		d.Activate(cy.Bank, cy.Rows[cy.Pos], cy.Start)
		if cy.Read {
			d.Stats.Reads++
			d.Stats.OpEnergyPJ += d.Energy.RD
		}
		if cy.ClosedPage {
			d.Precharge(cy.Bank)
		}
		return 1
	}
	for _, f := range d.faults {
		f.(CycleFaultModel).OnHammerCycle(d, cy.Bank, phys, h, cy.Start, cy.Period)
	}
	for i := 0; i < k && i < h; i++ {
		last := i + k*((h-1-i)/k)
		bk.lastRestore[phys[i]] = cy.Start + Time(last)*cy.Period
	}
	precharges := h
	if !cy.ClosedPage {
		if bk.openPhysRow == -1 {
			precharges--
		}
		bk.openPhysRow = phys[(h-1)%k]
	}
	d.Stats.Activates += int64(h)
	d.Stats.Precharges += int64(precharges)
	d.Stats.OpEnergyPJ += d.Energy.ACT * float64(h)
	if cy.Read {
		d.Stats.Reads += int64(h)
		d.Stats.OpEnergyPJ += d.Energy.RD * float64(h)
	}
	return h
}

// --- Batched refresh path ---

// BankRefreshFaultModel is the optional batched-refresh extension of
// FaultModel used by RefreshBankAll. A model implementing it can apply
// a whole-bank refresh sweep in one call.
//
// Batching contract: OnRefreshBankBatch(d, bank, now) must leave the
// model and the device bits in exactly the state Geom.Rows consecutive
// OnRefresh(d, bank, r, now) calls at r = 0, 1, ..., Rows-1 would —
// bit-identical floats and random draws included, so the model must
// visit its per-row state in ascending physical-row order. The batch is
// dispatched model by model (model A sweeps every row before model B
// starts) instead of row by row; a model whose OnRefresh reads state
// that another attached model's OnRefresh mutates cannot guarantee
// equivalence under that reordering and must return false from
// BatchableBankRefresh, which makes the device fall back to per-row
// dispatch for every model. Batchable* must be side-effect free.
type BankRefreshFaultModel interface {
	FaultModel
	// BatchableBankRefresh reports whether a whole-bank refresh sweep
	// can be applied batched for the given bank.
	BatchableBankRefresh(bank int) bool
	// OnRefreshBankBatch applies OnRefresh for every physical row of
	// the bank, in ascending row order, at time now.
	OnRefreshBankBatch(d *Device, bank int, now Time)
}

// RefreshBankAll refreshes every physical row of one bank at time now —
// the refresh-storm shape retention experiments, profiling passes and
// multi-rate refresh sweeps issue. It is behaviourally identical to
// calling RefreshPhysRow for rows 0..Rows-1 in order; when every
// attached fault model supports batched bank refresh the sweep costs
// O(weak rows) fault work instead of Rows full dispatches.
func (d *Device) RefreshBankAll(b int, now Time) {
	bk := d.bank(b)
	rows := d.Geom.Rows
	batchable := true
	for _, f := range d.faults {
		rf, ok := f.(BankRefreshFaultModel)
		if !ok || !rf.BatchableBankRefresh(b) {
			batchable = false
			break
		}
	}
	if !batchable && len(d.faults) > 0 {
		for r := 0; r < rows; r++ {
			d.RefreshPhysRow(b, r, now)
		}
		return
	}
	for _, f := range d.faults {
		f.(BankRefreshFaultModel).OnRefreshBankBatch(d, b, now)
	}
	for r := 0; r < rows; r++ {
		bk.lastRestore[r] = now
	}
	d.Stats.RowRefreshes += int64(rows)
	d.Stats.OpEnergyPJ += d.Energy.REFPerRow * float64(rows)
}

// Read returns the 64-bit word at the given column of the open row.
func (d *Device) Read(b, col int) uint64 {
	bk := d.bank(b)
	if bk.openPhysRow == -1 {
		panic(fmt.Sprintf("dram: RD to precharged bank %d", b))
	}
	if col < 0 || col >= d.Geom.Cols {
		panic(fmt.Sprintf("dram: RD col %d out of range", col))
	}
	d.Stats.Reads++
	d.Stats.OpEnergyPJ += d.Energy.RD
	return bk.cells[bk.openPhysRow*bk.cols+col]
}

// Write stores a 64-bit word at the given column of the open row.
func (d *Device) Write(b, col int, v uint64) {
	bk := d.bank(b)
	if bk.openPhysRow == -1 {
		panic(fmt.Sprintf("dram: WR to precharged bank %d", b))
	}
	if col < 0 || col >= d.Geom.Cols {
		panic(fmt.Sprintf("dram: WR col %d out of range", col))
	}
	bk.cells[bk.openPhysRow*bk.cols+col] = v
	d.Stats.Writes++
	d.Stats.OpEnergyPJ += d.Energy.WR
}

// RefreshPhysRow explicitly refreshes one physical row (used by
// auto-refresh, PARA neighbor refresh, and targeted-refresh commands).
// The bank may be open or closed; real devices fold targeted refreshes
// into spare timing slots, which the controller accounts for.
func (d *Device) RefreshPhysRow(b, physRow int, now Time) {
	if physRow < 0 || physRow >= d.Geom.Rows {
		return // neighbor of an edge row; nothing to refresh
	}
	d.restore(b, physRow, now, false)
	d.Stats.RowRefreshes++
	d.Stats.OpEnergyPJ += d.Energy.REFPerRow
}

// RefreshLogRow refreshes the physical row backing a logical row.
func (d *Device) RefreshLogRow(b, logRow int, now Time) {
	d.RefreshPhysRow(b, d.remap.Phys(logRow), now)
}

// AutoRefreshGroupSize returns how many rows per bank one REF command
// refreshes under the standard 8192-commands-per-window scheme.
func (d *Device) AutoRefreshGroupSize() int {
	n := d.Geom.Rows / 8192
	if n < 1 {
		n = 1
	}
	return n
}

// AutoRefresh performs one REF command: it refreshes the next group of
// physical rows in every bank and advances the internal refresh
// pointer. It returns the number of rows refreshed per bank.
func (d *Device) AutoRefresh(now Time) int {
	n := d.AutoRefreshGroupSize()
	for b := range d.banks {
		for i := 0; i < n; i++ {
			d.RefreshPhysRow(b, (d.refreshPtr+i)%d.Geom.Rows, now)
		}
	}
	d.refreshPtr = (d.refreshPtr + n) % d.Geom.Rows
	return n
}

// LastRestore returns when the physical row's charge was last fully
// restored (by activation or refresh).
func (d *Device) LastRestore(b, physRow int) Time {
	return d.bank(b).lastRestore[physRow]
}

// --- Raw cell access for fault models and test instrumentation ---
//
// These operate on *physical* rows and bypass the command protocol;
// they model physics, not bus transactions, and cost no energy.

// PhysBit returns the bit at position bit of a physical row.
func (d *Device) PhysBit(b, physRow, bit int) uint64 {
	row := d.bank(b).row(physRow)
	return (row[bit>>6] >> (uint(bit) & 63)) & 1
}

// SetPhysBit forces the bit at position bit of a physical row.
func (d *Device) SetPhysBit(b, physRow, bit int, v uint64) {
	row := d.bank(b).row(physRow)
	mask := uint64(1) << (uint(bit) & 63)
	if v&1 == 1 {
		row[bit>>6] |= mask
	} else {
		row[bit>>6] &^= mask
	}
}

// FlipPhysBit inverts the bit at position bit of a physical row.
func (d *Device) FlipPhysBit(b, physRow, bit int) {
	row := d.bank(b).row(physRow)
	row[bit>>6] ^= uint64(1) << (uint(bit) & 63)
}

// PhysRowWords returns the backing words of a physical row. The slice
// aliases device storage; callers must treat it as cell physics.
func (d *Device) PhysRowWords(b, physRow int) []uint64 {
	return d.bank(b).row(physRow)
}

// FillPhysRow sets every word of a physical row to the given pattern
// without going through the command interface (test instrumentation).
func (d *Device) FillPhysRow(b, physRow int, pattern uint64) {
	row := d.bank(b).row(physRow)
	for i := range row {
		row[i] = pattern
	}
}
