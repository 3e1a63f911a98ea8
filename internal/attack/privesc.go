package attack

// The toy OS the Project-Zero-style privilege escalation
// (RunPrivEscSystem) attacks: spray page-table entries across physical
// memory, use a flip template to corrupt the physical-frame-number
// field of a PTE, and win when the corrupted PTE points into a
// page-table page — giving the attacker a writable mapping of a page
// table and therefore arbitrary physical memory access.
//
// The page-table model is deliberately minimal but concrete: PTEs are
// real 64-bit words stored in the simulated DRAM, one row-sized page
// per frame, and the attack only manipulates memory through the
// controller.

// PTE field layout used by the toy OS.
const (
	PTEValid    = uint64(1) << 63
	PTEWritable = uint64(1) << 62
	// PFNBits is the width of the physical frame number field
	// (low-order bits of the PTE).
	PFNBits = 20
	PFNMask = (uint64(1) << PFNBits) - 1
)

// MakePTE builds a valid, writable PTE pointing at frame pfn.
func MakePTE(pfn uint64) uint64 { return PTEValid | PTEWritable | (pfn & PFNMask) }

// pfnUsable reports whether a flip at within-row bit position bit
// lands in the PFN field of an 8-byte-aligned PTE slot — the
// escalation chain's usability test for a template.
func pfnUsable(bit int) bool { return bit%64 < PFNBits }

// FrameKind classifies what a physical frame (one row-sized page of
// the flat address space) currently holds.
type FrameKind uint8

// Frame kinds of the toy OS.
const (
	FrameFree FrameKind = iota
	FrameAttacker
	FramePageTable
	FrameKernel
)
