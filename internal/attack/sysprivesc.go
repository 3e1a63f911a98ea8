package attack

// The exploit chains, run against a whole memctrl.MemorySystem: the
// physical address space is flat, frames are row-sized pages of that
// flat space, where a frame's words land depends on the mapping
// policy (under cache-line interleaving one page spans channels), the
// buddy allocator spans every frame of the topology, aggressor rows
// are derived through AdjacentAddrs/AdjacentLocs rather than assumed
// from flat adjacency, and the verdict is ECC-aware: a flip SECDED
// corrects is not an exploit, a silent miscorrection very much is.
// On a one-bank row-interleaved system a frame is a row, which is the
// classic single-bank setting of the original exploit.

import (
	"math/bits"

	"repro/internal/memctrl"
	"repro/internal/rng"
)

// Verdict is the deployed-system outcome of an exploit attempt,
// ordered by severity.
type Verdict uint8

// Exploit verdicts. VerdictECCSilent and above count as exploitable:
// silently miscorrected data is corruption the system acts on.
const (
	// VerdictMitigated: the chain never produced a flip the attacker
	// could use (defence held, or the physics refused).
	VerdictMitigated Verdict = iota
	// VerdictECCCorrected: flips occurred but ECC corrected every one
	// the attacker read back — not an exploit.
	VerdictECCCorrected
	// VerdictECCDetected: uncorrectable-but-detected errors; the
	// attack is visible (machine-check territory), data is lost but
	// not silently usable.
	VerdictECCDetected
	// VerdictECCSilent: ECC miscorrected attacker flips into silently
	// wrong data — the ECCploit outcome; exploitable.
	VerdictECCSilent
	// VerdictExploitable: the attacker observed usable corruption
	// directly (privilege escalation achieved, or VM isolation
	// breached).
	VerdictExploitable
)

// String renders the one-word verdict the CLI and tables print.
func (v Verdict) String() string {
	switch v {
	case VerdictECCCorrected:
		return "ecc-corrected"
	case VerdictECCDetected:
		return "ecc-detected"
	case VerdictECCSilent:
		return "ECC-SILENT"
	case VerdictExploitable:
		return "EXPLOITABLE"
	}
	return "mitigated"
}

// Exploitable reports whether the verdict means the attacker won.
func (v Verdict) Exploitable() bool { return v >= VerdictECCSilent }

// classifyVerdict folds the attacker-visible outcome (breach: the
// chain's own success criterion) with the ECC layer's classification
// deltas over the exploit phase.
func classifyVerdict(breach bool, corrected, detected, silent int64) Verdict {
	switch {
	case breach && silent > 0:
		return VerdictECCSilent
	case breach:
		return VerdictExploitable
	case detected > 0:
		return VerdictECCDetected
	case corrected > 0:
		return VerdictECCCorrected
	}
	return VerdictMitigated
}

// SysPrivEscConfig parameterizes a topology-wide escalation campaign.
type SysPrivEscConfig struct {
	// SprayFraction is the fraction of physical frames the attacker
	// fills with page-table pages.
	SprayFraction float64
	// PairsPerAttempt is the hammer budget per templating row and per
	// placement attempt.
	PairsPerAttempt int
	// MaxPlacements bounds the release-and-respray attempts.
	MaxPlacements int
	// Deterministic drives the topology-wide buddy allocator through
	// the Drammer exhaust/release/re-absorb sequence so the kernel's
	// page-table allocation lands on the victim frame on the first
	// placement. Requires a power-of-two frame count.
	Deterministic bool
	// Workers is the channel-shard fan-out of the templating pass
	// (results are bit-identical for every value; see ScanSystem).
	Workers int
}

// SysPrivEscResult reports a topology-wide campaign's outcome.
type SysPrivEscResult struct {
	TemplatesFound int
	UsableTemplate bool
	Placements     int
	FlipInduced    bool
	Escalated      bool
	HammerPairs    int64
	// ECCCorrected/ECCDetected/ECCSilent are the ECC layer's
	// classification deltas across the whole campaign (zero on
	// non-ECC systems).
	ECCCorrected, ECCDetected, ECCSilent int64
	Verdict                              Verdict
}

// RunPrivEscSystem executes the escalation chain against a whole
// memory system: mapping-aware templating (ScanSystem, both
// polarities), page-table spray over the flat physical address space
// — with optional Drammer massaging of a topology-wide buddy
// allocator — then the targeted flip and the check, all through the
// ordinary access path. A frame is one row-sized page of the flat
// space; under non-row-interleaved policies its words scatter across
// channels and banks, which is exactly what the chain has to survive.
// The src stream models OS allocator nondeterminism.
func RunPrivEscSystem(ms *memctrl.MemorySystem, cfg SysPrivEscConfig, src *rng.Stream) SysPrivEscResult {
	var res SysPrivEscResult
	p := ms.Policy()
	t := ms.Topology()
	frameBytes := uint64(t.Geom.Cols) * 8
	frameCount := int(p.Bytes() / frameBytes)
	eccBase := ms.AggregateStats()

	// Phase 1: templating, both polarities, aggressors derived
	// through the mapping policy.
	templates := ScanSystem(ms, ^uint64(0), cfg.PairsPerAttempt, cfg.Workers)
	templates = append(templates, ScanSystem(ms, 0, cfg.PairsPerAttempt, cfg.Workers)...)
	res.TemplatesFound = len(templates)
	interior := t.Channels * t.Ranks * t.Geom.Banks * (t.Geom.Rows - 2)
	res.HammerPairs += 2 * int64(cfg.PairsPerAttempt) * int64(interior)

	// A template is usable if its flip lands in the PFN field of an
	// 8-byte-aligned PTE slot of the word the policy maps the flip
	// into.
	var tmpl *SysFlipTemplate
	for i := range templates {
		if pfnUsable(templates[i].Bit) {
			tmpl = &templates[i]
			break
		}
	}
	if tmpl == nil {
		after := ms.AggregateStats()
		res.ECCCorrected = after.ECCCorrected - eccBase.ECCCorrected
		res.ECCDetected = after.ECCDetected - eccBase.ECCDetected
		res.ECCSilent = after.ECCSilent - eccBase.ECCSilent
		res.Verdict = classifyVerdict(false, res.ECCCorrected, res.ECCDetected, res.ECCSilent)
		return res
	}
	res.UsableTemplate = true

	// The PTE slot under attack: the flat word holding the template's
	// flipped bit, the frame that word belongs to, and its slot index
	// within the frame.
	wordAddr := p.Encode(tmpl.Victim)
	victimFrame := int(wordAddr / frameBytes)
	pteSlot := int(wordAddr % frameBytes / 8)
	bitInPTE := uint(tmpl.Bit % 64)
	basePFN := uint64(victimFrame) & PFNMask
	target := basePFN &^ (1 << bitInPTE)
	if tmpl.From == 1 {
		target |= 1 << bitInPTE
	}
	lo, hi, _ := AdjacentLocs(p, p.Encode(tmpl.Victim))
	ctrl := ms.Controller(tmpl.Victim.Channel)

	// Phase 2+3: placement and hammering over the flat frame space.
	frames := make([]FrameKind, frameCount)
	for attempt := 0; attempt < cfg.MaxPlacements; attempt++ {
		res.Placements++
		for i := range frames {
			frames[i] = FrameAttacker
		}
		nPT := int(cfg.SprayFraction * float64(frameCount))
		if nPT >= frameCount {
			nPT = frameCount - 1
		}
		if cfg.Deterministic && attempt == 0 && frameCount&(frameCount-1) == 0 {
			// Drammer massaging against the topology-wide allocator.
			alloc := NewBuddy(frameCount)
			order := 4
			if alloc.maxOrder < order {
				order = alloc.maxOrder
			}
			if frame, ok := DrammerPlacement(alloc, victimFrame, order); ok {
				frames[frame] = FramePageTable
				nPT--
			}
		}
		for placed := 0; placed < nPT; {
			f := src.Intn(frameCount)
			if frames[f] != FramePageTable {
				frames[f] = FramePageTable
				placed++
			}
		}
		if frames[victimFrame] != FramePageTable {
			continue // page table not on the victim frame; re-spray
		}
		// Write the victim frame's PTE array through the flat address
		// space (the policy scatters the slots as it pleases); the
		// attacked slot's PFN is arranged so the template's flip
		// redirects it.
		base := uint64(victimFrame) * frameBytes
		for slot := 0; slot < t.Geom.Cols; slot++ {
			pfn := target
			if slot != pteSlot {
				pfn = uint64(src.Intn(frameCount)) & PFNMask
			}
			ms.Access(base+uint64(slot)*8, true, MakePTE(pfn))
		}
		// Hammer the template's aggressor rows.
		ctrl.HammerPairsRanked(lo.Rank, lo.Bank, lo.Row, hi.Row, cfg.PairsPerAttempt)
		res.HammerPairs += int64(cfg.PairsPerAttempt)

		// Phase 4: read the PTE back through the (possibly ECC-
		// filtered) access path.
		word, _ := ms.Access(wordAddr, false, 0)
		newPFN := word & PFNMask
		if newPFN != target {
			res.FlipInduced = true
			if int(newPFN) < frameCount && frames[newPFN] == FramePageTable {
				res.Escalated = true
				break
			}
		}
	}
	after := ms.AggregateStats()
	res.ECCCorrected = after.ECCCorrected - eccBase.ECCCorrected
	res.ECCDetected = after.ECCDetected - eccBase.ECCDetected
	res.ECCSilent = after.ECCSilent - eccBase.ECCSilent
	res.Verdict = classifyVerdict(res.Escalated, res.ECCCorrected, res.ECCDetected, res.ECCSilent)
	return res
}

// SysCrossVMConfig parameterizes the topology-wide covictim scenario.
type SysCrossVMConfig struct {
	// FrameLo/FrameHi bound the attacker VM's flat physical frame
	// range [FrameLo, FrameHi); the victim VM owns the rest.
	FrameLo, FrameHi int
	// Pairs is the hammer budget per attacked bank.
	Pairs int
	// VictimPattern is what the victim stored.
	VictimPattern uint64
	// Workers is the channel-shard fan-out (bit-identical results for
	// every value).
	Workers int
}

// SysCrossVMResult reports the covictim outcome at topology scale.
type SysCrossVMResult struct {
	// AttackerRows/VictimRows/ContestedRows classify every physical
	// row: fully inside the attacker's flat range, fully outside, or
	// split by the mapping policy (contested rows are excluded from
	// both sides — neither VM gets a clean claim on them).
	AttackerRows, VictimRows, ContestedRows int
	VictimFlips                             int
	HammerPairs                             int64
	ECCCorrected, ECCDetected, ECCSilent    int64
	Verdict                                 Verdict
}

// RunCrossVMSystem simulates Flip-Feng-Shui at topology scale: the
// attacker VM owns a contiguous flat physical frame range, the victim
// owns the rest, and which *rows* each range decodes to depends on
// the mapping policy — under cache-line interleaving a contiguous
// allocation fragments across channels and may own no full row at
// all, which is itself a finding. The attacker hammers only rows it
// fully owns (the lowest against the highest owned row of each bank,
// the seed-era edge pattern); any flip observed in victim-owned rows
// breaches VM isolation. Channels shard across up to cfg.Workers
// goroutines with bit-identical results.
func RunCrossVMSystem(ms *memctrl.MemorySystem, cfg SysCrossVMConfig) SysCrossVMResult {
	var res SysCrossVMResult
	p := ms.Policy()
	t := ms.Topology()
	frameBytes := uint64(t.Geom.Cols) * 8
	eccBase := ms.AggregateStats()

	// Row ownership: count how many of each row's words fall inside
	// the attacker's flat range; Cols of them makes the row fully
	// attacker-owned, zero makes it victim-owned.
	rowsPerChan := t.Ranks * t.Geom.Banks * t.Geom.Rows
	counts := make([]int, t.Channels*rowsPerChan)
	flatRow := func(l memctrl.Loc) int {
		return ((l.Channel*t.Ranks+l.Rank)*t.Geom.Banks+l.Bank)*t.Geom.Rows + l.Row
	}
	for addr := uint64(cfg.FrameLo) * frameBytes; addr < uint64(cfg.FrameHi)*frameBytes; addr += 8 {
		counts[flatRow(p.Decode(addr))]++
	}
	owned := func(ch, rk, bank, row int) int {
		return counts[((ch*t.Ranks+rk)*t.Geom.Banks+bank)*t.Geom.Rows+row]
	}
	for i := range counts {
		switch counts[i] {
		case t.Geom.Cols:
			res.AttackerRows++
		case 0:
			res.VictimRows++
		default:
			res.ContestedRows++
		}
	}

	// Per channel: the victim fills its rows, the attacker hammers
	// the edge rows of each bank allocation it owns, and the victim's
	// rows are read back through the (possibly ECC-filtered) path.
	// Channels are independent, so one sharded pass per channel is
	// bit-identical to three global phases.
	perChanFlips := make([]int, t.Channels)
	perChanPairs := make([]int64, t.Channels)
	ms.ShardChannels(cfg.Workers, func(ch int, c *memctrl.Controller) {
		for rk := 0; rk < t.Ranks; rk++ {
			for bank := 0; bank < t.Geom.Banks; bank++ {
				for row := 0; row < t.Geom.Rows; row++ {
					if owned(ch, rk, bank, row) == 0 {
						writeRowRanked(c, rk, bank, row, cfg.VictimPattern)
					}
				}
			}
		}
		for rk := 0; rk < t.Ranks; rk++ {
			for bank := 0; bank < t.Geom.Banks; bank++ {
				first, last := -1, -1
				for row := 0; row < t.Geom.Rows; row++ {
					if owned(ch, rk, bank, row) == t.Geom.Cols {
						if first < 0 {
							first = row
						}
						last = row
					}
				}
				if first >= 0 && last > first {
					c.HammerPairsRanked(rk, bank, first, last, cfg.Pairs)
					perChanPairs[ch] += int64(cfg.Pairs)
				}
			}
		}
		flips := 0
		for rk := 0; rk < t.Ranks; rk++ {
			for bank := 0; bank < t.Geom.Banks; bank++ {
				for row := 0; row < t.Geom.Rows; row++ {
					if owned(ch, rk, bank, row) != 0 {
						continue
					}
					for _, w := range readRowRanked(c, rk, bank, row) {
						flips += bits.OnesCount64(w ^ cfg.VictimPattern)
					}
				}
			}
		}
		perChanFlips[ch] = flips
	})
	for ch := 0; ch < t.Channels; ch++ {
		res.VictimFlips += perChanFlips[ch]
		res.HammerPairs += perChanPairs[ch]
	}
	after := ms.AggregateStats()
	res.ECCCorrected = after.ECCCorrected - eccBase.ECCCorrected
	res.ECCDetected = after.ECCDetected - eccBase.ECCDetected
	res.ECCSilent = after.ECCSilent - eccBase.ECCSilent
	res.Verdict = classifyVerdict(res.VictimFlips > 0, res.ECCCorrected, res.ECCDetected, res.ECCSilent)
	return res
}
