// Package softmc is the simulated analogue of SoftMC (HPCA 2017), the
// programmable memory-controller infrastructure the paper credits for
// enabling its experimental DRAM studies: the footnote in Section II
// notes the FPGA infrastructure "has enabled many studies into the
// failure and performance characteristics of modern DRAM, which were
// previously not well understood."
//
// SoftMC's key idea is to expose the raw DDR command interface —
// ACT/PRE/RD/WR/REF plus precise delays — as an instruction stream, so
// researchers can express tests (retention, RowHammer, latency
// characterization) that no standard controller would issue. This
// package provides the same programming model against the simulated
// device: programs are sequences of Instructions with loop support,
// executed with cycle-accounted timing, entirely bypassing the normal
// controller policies.
package softmc

import (
	"fmt"

	"repro/internal/dram"
)

// Opcode is a SoftMC instruction opcode.
type Opcode int

// The instruction set: the five DDR commands SoftMC exposes plus
// control instructions.
const (
	// OpACT activates Row in Bank.
	OpACT Opcode = iota
	// OpPRE precharges Bank.
	OpPRE
	// OpRD reads column Col of the open row in Bank into register R.
	OpRD
	// OpWR writes Imm to column Col of the open row in Bank.
	OpWR
	// OpREF issues one auto-refresh command.
	OpREF
	// OpWAIT advances time by Imm nanoseconds.
	OpWAIT
	// OpLOOP jumps back Target instructions Imm times (a counted
	// loop; nesting is allowed as long as ranges are disjoint or
	// properly nested).
	OpLOOP
)

// String names the opcode in the SoftMC mnemonic style.
func (o Opcode) String() string {
	switch o {
	case OpACT:
		return "ACT"
	case OpPRE:
		return "PRE"
	case OpRD:
		return "RD"
	case OpWR:
		return "WR"
	case OpREF:
		return "REF"
	case OpWAIT:
		return "WAIT"
	case OpLOOP:
		return "LOOP"
	default:
		return "???"
	}
}

// Instruction is one SoftMC instruction.
type Instruction struct {
	Op   Opcode
	Bank int
	Row  int
	Col  int
	Imm  uint64
	// Target is the loop body length for OpLOOP: the loop re-executes
	// the Target instructions preceding it, Imm additional times.
	Target int
}

// Program is an instruction sequence with a builder API.
type Program struct {
	Ins []Instruction
}

// ACT appends an activate.
func (p *Program) ACT(bank, row int) *Program {
	p.Ins = append(p.Ins, Instruction{Op: OpACT, Bank: bank, Row: row})
	return p
}

// PRE appends a precharge.
func (p *Program) PRE(bank int) *Program {
	p.Ins = append(p.Ins, Instruction{Op: OpPRE, Bank: bank})
	return p
}

// RD appends a column read.
func (p *Program) RD(bank, col int) *Program {
	p.Ins = append(p.Ins, Instruction{Op: OpRD, Bank: bank, Col: col})
	return p
}

// WR appends a column write of value v.
func (p *Program) WR(bank, col int, v uint64) *Program {
	p.Ins = append(p.Ins, Instruction{Op: OpWR, Bank: bank, Col: col, Imm: v})
	return p
}

// REF appends an auto-refresh command.
func (p *Program) REF() *Program {
	p.Ins = append(p.Ins, Instruction{Op: OpREF})
	return p
}

// WAIT appends a delay of ns nanoseconds.
func (p *Program) WAIT(ns uint64) *Program {
	p.Ins = append(p.Ins, Instruction{Op: OpWAIT, Imm: ns})
	return p
}

// Loop appends a counted loop over the last body instructions,
// executing them times additional times (so the body runs times+1
// in total).
func (p *Program) Loop(body int, times uint64) *Program {
	if body <= 0 || body > len(p.Ins) {
		panic(fmt.Sprintf("softmc: loop body %d out of range", body))
	}
	p.Ins = append(p.Ins, Instruction{Op: OpLOOP, Target: body, Imm: times})
	return p
}

// Result of executing a program.
type Result struct {
	// Reads holds every value returned by an RD, in order.
	Reads []uint64
	// Cycles is the executed instruction count (loop iterations
	// included).
	Cycles int64
	// EndTime is the simulated time after execution.
	EndTime dram.Time
}

// Engine executes programs against a device, enforcing the timing
// constraints a real SoftMC enforces in hardware (tRCD before column
// access, tRAS before precharge, tRP and tRC between activates).
type Engine struct {
	dev *dram.Device
	now dram.Time

	lastACT map[int]dram.Time // per bank
	lastPRE map[int]dram.Time
}

// NewEngine creates an engine over the device starting at time start.
func NewEngine(dev *dram.Device, start dram.Time) *Engine {
	return &Engine{dev: dev, now: start,
		lastACT: map[int]dram.Time{}, lastPRE: map[int]dram.Time{}}
}

// Now returns the engine's current simulated time.
func (e *Engine) Now() dram.Time { return e.now }

// advanceTo ensures now >= t.
func (e *Engine) advanceTo(t dram.Time) {
	if t > e.now {
		e.now = t
	}
}

// Run executes a program and returns its result. Command legality
// (reads to precharged banks etc.) is enforced by the device and
// panics, exactly as a mis-programmed SoftMC test would fail.
func (e *Engine) Run(p *Program) Result {
	t := e.dev.Timing
	var res Result
	// loopsLeft tracks remaining iterations per LOOP instruction pc.
	loopsLeft := map[int]uint64{}
	for pc := 0; pc < len(p.Ins); pc++ {
		ins := p.Ins[pc]
		res.Cycles++
		switch ins.Op {
		case OpACT:
			// Respect tRP since precharge and tRC since last ACT.
			e.advanceTo(e.lastPRE[ins.Bank] + t.TRP)
			e.advanceTo(e.lastACT[ins.Bank] + t.TRC)
			e.dev.Activate(ins.Bank, ins.Row, e.now)
			e.lastACT[ins.Bank] = e.now
		case OpPRE:
			// Respect tRAS since activate.
			e.advanceTo(e.lastACT[ins.Bank] + t.TRAS)
			e.dev.Precharge(ins.Bank)
			e.lastPRE[ins.Bank] = e.now
		case OpRD:
			e.advanceTo(e.lastACT[ins.Bank] + t.TRCD)
			res.Reads = append(res.Reads, e.dev.Read(ins.Bank, ins.Col))
			e.now += t.TCL + t.TBURST
		case OpWR:
			e.advanceTo(e.lastACT[ins.Bank] + t.TRCD)
			e.dev.Write(ins.Bank, ins.Col, ins.Imm)
			e.now += t.TCL + t.TBURST
		case OpREF:
			for b := 0; b < e.dev.Geom.Banks; b++ {
				e.dev.Precharge(b)
			}
			e.dev.AutoRefresh(e.now)
			e.now += t.TRFC
		case OpWAIT:
			e.now += dram.Time(ins.Imm)
		case OpLOOP:
			if loopsLeft[pc] == 0 {
				// First arrival: the canonical hammer kernel
				// {ACT a; PRE; ACT b; PRE} × n is fast-forwarded
				// through the device's closed-page hammer cycle. The
				// body already ran once interpreted, so activations
				// proceed at the kernel's uniform period
				// max(tRAS+tRP, tRC); the first batched activation
				// honours the same tRP/tRC constraints the interpreter
				// would.
				if n, bank, rowA, rowB, isKernel := hammerKernel(p.Ins, pc); isKernel && n > 0 {
					period := max(t.TRAS+t.TRP, t.TRC)
					act0 := max(e.now, e.lastPRE[bank]+t.TRP, e.lastACT[bank]+t.TRC)
					rows := [2]int{rowA, rowB}
					acts := 2 * int(n)
					for done := 0; done < acts; {
						done += e.dev.HammerCycle(dram.Cycle{
							Bank: bank, Rows: rows[:], Pos: done % 2, N: acts - done,
							Start: act0 + dram.Time(done)*period, Period: period, ClosedPage: true,
						})
					}
					last := act0 + dram.Time(acts-1)*period
					e.lastACT[bank] = last
					e.advanceTo(last + t.TRAS) // final precharge
					e.lastPRE[bank] = e.now
					res.Cycles += int64(n) * 5 // 4 body ins + LOOP per iteration
					continue                   // loop fully consumed
				}
				loopsLeft[pc] = ins.Imm + 1 // first arrival: set count
			}
			loopsLeft[pc]--
			if loopsLeft[pc] > 0 {
				pc -= ins.Target + 1 // re-execute the body
			}
		default:
			panic(fmt.Sprintf("softmc: bad opcode %d", ins.Op))
		}
	}
	res.EndTime = e.now
	return res
}

// hammerKernel recognizes the canonical hammer kernel at a LOOP
// instruction: a 4-instruction body {ACT a; PRE; ACT b; PRE} on a
// single bank with distinct rows. It returns the loop's remaining
// iteration count and the kernel's operands.
func hammerKernel(ins []Instruction, pc int) (n uint64, bank, rowA, rowB int, ok bool) {
	l := ins[pc]
	if l.Target != 4 || pc < 4 {
		return 0, 0, 0, 0, false
	}
	a1, p1, a2, p2 := ins[pc-4], ins[pc-3], ins[pc-2], ins[pc-1]
	if a1.Op != OpACT || p1.Op != OpPRE || a2.Op != OpACT || p2.Op != OpPRE {
		return 0, 0, 0, 0, false
	}
	if a1.Bank != a2.Bank || p1.Bank != a1.Bank || p2.Bank != a1.Bank || a1.Row == a2.Row {
		return 0, 0, 0, 0, false
	}
	return l.Imm, a1.Bank, a1.Row, a2.Row, true
}

// --- Canonical test programs, as shipped with SoftMC ---

// HammerProgram builds the RowHammer kernel: open/close two aggressor
// rows `pairs` times. This is the exact command sequence the original
// test program induces through cache-miss side effects, expressed
// natively.
func HammerProgram(bank, rowA, rowB int, pairs uint64) *Program {
	p := &Program{}
	p.ACT(bank, rowA).PRE(bank).ACT(bank, rowB).PRE(bank)
	p.Loop(4, pairs-1)
	return p
}

// RetentionProgram builds a single-row retention test: write a
// pattern to every column, wait `ns`, read every column back. The
// caller diffs Result.Reads against the pattern.
func RetentionProgram(bank, row, cols int, pattern uint64, ns uint64) *Program {
	p := &Program{}
	p.ACT(bank, row)
	for c := 0; c < cols; c++ {
		p.WR(bank, c, pattern)
	}
	p.PRE(bank)
	p.WAIT(ns)
	p.ACT(bank, row)
	for c := 0; c < cols; c++ {
		p.RD(bank, c)
	}
	p.PRE(bank)
	return p
}
