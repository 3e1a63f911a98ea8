package attack

import (
	"repro/internal/memctrl"
	"repro/internal/rng"
)

// This file simulates the Project-Zero-style privilege escalation:
// spray page-table entries across physical memory, use a flip template
// to corrupt the physical-frame-number field of a PTE, and win when
// the corrupted PTE points into a page-table page — giving the
// attacker a writable mapping of a page table and therefore arbitrary
// physical memory access.
//
// The page-table model is deliberately minimal but concrete: PTEs are
// real 64-bit words stored in the simulated DRAM, one page per row,
// and the attack only manipulates memory through the controller.

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
// usability test of both the single-bank and the system-wide
// escalation chains.
func pfnUsable(bit int) bool { return bit%64 < PFNBits }

// FrameKind classifies what a physical frame (== row, in this model)
// currently holds.
type FrameKind uint8

// Frame kinds of the toy OS.
const (
	FrameFree FrameKind = iota
	FrameAttacker
	FramePageTable
	FrameKernel
)

// PrivEscConfig parameterizes one escalation attempt campaign.
type PrivEscConfig struct {
	// Bank the attack operates in.
	Bank int
	// SprayFraction is the fraction of frames the attacker fills with
	// page-table pages (by mmapping a file over and over, as in the
	// original exploit).
	SprayFraction float64
	// PairsPerAttempt is the hammer budget per placement attempt.
	PairsPerAttempt int
	// MaxPlacements bounds how many times the attacker releases and
	// re-allocates memory to steer a page table onto the victim row.
	MaxPlacements int
	// Deterministic uses Drammer-style memory massaging: the attacker
	// drives the (modelled) buddy allocator through the
	// exhaust/release/re-absorb sequence of DrammerPlacement so the
	// kernel's page-table allocation lands on the victim frame on the
	// first placement. Requires a power-of-two row count.
	Deterministic bool
}

// PrivEscResult reports a campaign's outcome.
type PrivEscResult struct {
	TemplatesFound int
	UsableTemplate bool
	Placements     int
	FlipInduced    bool
	Escalated      bool
	HammerPairs    int64
}

// RunPrivEsc executes the full chain: template, place, hammer, check.
// The src stream models OS allocator nondeterminism.
func RunPrivEsc(c *memctrl.Controller, cfg PrivEscConfig, src *rng.Stream) PrivEscResult {
	var res PrivEscResult
	rows := c.Map().Geom.Rows

	// Phase 1: templating. The attacker scans both polarities, as the
	// real templating attacks do: true-cells reveal themselves under
	// the all-ones fill, anti-cells under all-zeros.
	templates := Scan(c, cfg.Bank, ^uint64(0), cfg.PairsPerAttempt)
	templates = append(templates, Scan(c, cfg.Bank, 0, cfg.PairsPerAttempt)...)
	res.TemplatesFound = len(templates)
	res.HammerPairs += 2 * int64(cfg.PairsPerAttempt) * int64(rows-2)

	// A template is usable if it hits the PFN field of an 8-byte
	// aligned PTE slot and flips a 1 to 0 or 0 to 1 inside PFNBits.
	var tmpl *FlipTemplate
	for i := range templates {
		if pfnUsable(templates[i].Bit) {
			tmpl = &templates[i]
			break
		}
	}
	if tmpl == nil {
		return res
	}
	res.UsableTemplate = true

	// Phase 2+3: placement and hammering. Each placement models the
	// attacker releasing the victim frame and spraying page tables;
	// the OS places page tables on uniformly random frames until the
	// spray fraction is reached.
	frames := make([]FrameKind, rows)
	for attempt := 0; attempt < cfg.MaxPlacements; attempt++ {
		res.Placements++
		for i := range frames {
			frames[i] = FrameAttacker
		}
		nPT := int(cfg.SprayFraction * float64(rows))
		if nPT >= rows {
			nPT = rows - 1
		}
		if cfg.Deterministic && attempt == 0 && rows&(rows-1) == 0 {
			// Drammer massaging against the buddy allocator: isolate
			// the victim frame so the kernel's next page-table
			// allocation lands exactly there.
			alloc := NewBuddy(rows)
			if frame, ok := DrammerPlacement(alloc, tmpl.VictimRow, 4); ok {
				frames[frame] = FramePageTable
				nPT--
			}
		}
		for placed := 0; placed < nPT; {
			f := src.Intn(rows)
			if frames[f] != FramePageTable {
				frames[f] = FramePageTable
				placed++
			}
		}
		if frames[tmpl.VictimRow] != FramePageTable {
			continue // page table not on the victim frame; re-spray
		}
		// Write the victim frame's PTE array: each PTE points at an
		// attacker-controlled frame whose number has a 1 in the
		// template's bit position iff the template flips 1->0 (the
		// attacker chooses mapping offsets to arrange this).
		pteIndex := tmpl.Bit / 64
		bitInPTE := uint(tmpl.Bit % 64)
		basePFN := uint64(tmpl.VictimRow) & PFNMask
		target := basePFN &^ (1 << bitInPTE)
		if tmpl.From == 1 {
			target |= 1 << bitInPTE
		}
		for col := 0; col < c.Map().Geom.Cols; col++ {
			pfn := target
			if col != pteIndex {
				pfn = uint64(src.Intn(rows)) & PFNMask
			}
			c.AccessCoord(memctrl.Coord{Bank: cfg.Bank, Row: tmpl.VictimRow, Col: col},
				true, MakePTE(pfn))
		}
		// Hammer the template's aggressors.
		DoubleSided(c, cfg.Bank, tmpl.VictimRow, cfg.PairsPerAttempt)
		res.HammerPairs += int64(cfg.PairsPerAttempt)

		// Phase 4: check. Read the PTE back; if its PFN changed and
		// now points into a page-table frame, the attacker has a
		// writable mapping of a page table.
		word, _ := c.AccessCoord(memctrl.Coord{Bank: cfg.Bank, Row: tmpl.VictimRow, Col: pteIndex}, false, 0)
		newPFN := word & PFNMask
		if newPFN != target {
			res.FlipInduced = true
			if int(newPFN) < rows && frames[newPFN] == FramePageTable {
				res.Escalated = true
				return res
			}
		}
	}
	return res
}

// CrossVMResult reports the covictim scenario outcome.
type CrossVMResult struct {
	VictimFlips int
	HammerPairs int64
}

// RunCrossVM simulates the Flip-Feng-Shui-style covictim scenario:
// the attacker VM owns rows [attackerLo, attackerHi), the victim VM
// owns the rest of the bank. The attacker hammers only rows it owns;
// any flip observed in victim-owned rows is a breach of VM isolation.
// victimPattern is what the victim stored.
func RunCrossVM(c *memctrl.Controller, bank, attackerLo, attackerHi, pairs int, victimPattern uint64) CrossVMResult {
	rows := c.Map().Geom.Rows
	// Victim fills its rows.
	for r := 0; r < rows; r++ {
		if r >= attackerLo && r < attackerHi {
			continue
		}
		writeRow(c, bank, r, victimPattern)
	}
	// Attacker hammers the two rows at each edge of its allocation,
	// disturbing the adjacent victim rows.
	var res CrossVMResult
	c.HammerPairs(bank, attackerLo, attackerHi-1, pairs)
	res.HammerPairs = int64(pairs)
	// Count corruption in victim rows.
	for r := 0; r < rows; r++ {
		if r >= attackerLo && r < attackerHi {
			continue
		}
		for _, w := range readRow(c, bank, r) {
			res.VictimFlips += popcount(w ^ victimPattern)
		}
	}
	return res
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
