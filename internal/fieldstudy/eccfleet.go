package fieldstudy

// The ECC view of the fleet: the field studies the paper cites observe
// errors only after a code has filtered them, so "correctable" and
// "uncorrectable" rates are properties of the deployed ECC as much as
// of the silicon. This extension replays the same heavy-tailed
// per-DIMM error process as RunSharded, but draws each error event's
// bit multiplicity and strike positions over the full 72-bit ECC word
// (check bits are hit like data bits) and classifies the event under
// SECDED(72,64) — bit-exact, from the strike mask's syndrome — the
// default on-die block code, and x4 chipkill over the 18-device
// codeword. The silent column is the EIN/ECCploit point: stronger
// codes shrink it but none of the standard trio eliminates it.

import (
	"repro/internal/ecc"
	"repro/internal/par"
	"repro/internal/rng"
)

// eccWordBits is the SECDED codeword width events strike: 64 data + 8
// check bits across 18 x4 devices.
const eccWordBits = 72

// ECCClassStats aggregates one density class's error events as each
// ECC configuration experiences them. Counts are events, not DIMMs.
type ECCClassStats struct {
	Label  string `json:"label"`
	DIMMs  int    `json:"dimms"`
	Events int64  `json:"events"`

	SECDEDCorrected int64 `json:"secded_corrected"`
	SECDEDDetected  int64 `json:"secded_detected"`
	SECDEDSilent    int64 `json:"secded_silent"`

	InDRAMCorrected int64 `json:"indram_corrected"`
	InDRAMDetected  int64 `json:"indram_detected"`
	InDRAMSilent    int64 `json:"indram_silent"`

	ChipkillCorrected int64 `json:"chipkill_corrected"`
	ChipkillDetected  int64 `json:"chipkill_detected"`
	ChipkillSilent    int64 `json:"chipkill_silent"`
}

// add folds a block result into the class total.
func (s *ECCClassStats) add(o ECCClassStats) {
	s.Events += o.Events
	s.SECDEDCorrected += o.SECDEDCorrected
	s.SECDEDDetected += o.SECDEDDetected
	s.SECDEDSilent += o.SECDEDSilent
	s.InDRAMCorrected += o.InDRAMCorrected
	s.InDRAMDetected += o.InDRAMDetected
	s.InDRAMSilent += o.InDRAMSilent
	s.ChipkillCorrected += o.ChipkillCorrected
	s.ChipkillDetected += o.ChipkillDetected
	s.ChipkillSilent += o.ChipkillSilent
}

// classifyEvent triages one error event: n distinct strike positions
// in the 72-bit ECC word, drawn from the DIMM's substream. SECDED
// classifies the strike mask itself (the code is linear, so its verdict
// depends on the flipped positions alone, not on the stored data); the
// on-die code is count-based; chipkill is symbol-based over 4-bit
// symbols.
func classifyEvent(src *rng.Stream, multiFlipP float64, maxFlips int, st *ECCClassStats) {
	n := 1
	for n < maxFlips && src.Bool(multiFlipP) {
		n++
	}
	var strikes ecc.Codeword72
	for k := 0; k < n; {
		p := src.Intn(eccWordBits)
		if p < 64 {
			if strikes.Lo&(1<<uint(p)) != 0 {
				continue
			}
			strikes.Lo |= 1 << uint(p)
		} else {
			if strikes.Hi&(1<<uint(p-64)) != 0 {
				continue
			}
			strikes.Hi |= 1 << uint(p-64)
		}
		k++
	}
	tally(ecc.Classify(strikes), &st.SECDEDCorrected, &st.SECDEDDetected, &st.SECDEDSilent)
	tally(ecc.OnDie.Outcome(n), &st.InDRAMCorrected, &st.InDRAMDetected, &st.InDRAMSilent)
	tally(ecc.Chipkill4.Outcome(strikes), &st.ChipkillCorrected, &st.ChipkillDetected, &st.ChipkillSilent)
	st.Events++
}

// tally bumps the counter of one code's verdict. Every event has at
// least one strike, so OK (no error seen) never occurs.
func tally(oc ecc.Outcome, corrected, detected, silent *int64) {
	switch oc {
	case ecc.Corrected:
		*corrected++
	case ecc.Detected:
		*detected++
	default:
		*silent++
	}
}

// simulateECCBlock rolls one block of DIMMs through the ECC-aware
// event model. The substream key is the same (class, block start)
// formula as simulateBlock, so the result is a pure function of the
// seed for any worker count.
func simulateECCBlock(cfg Config, multiFlipP float64, maxFlips int, seed uint64, b block) ECCClassStats {
	src := rng.Sub(seed, uint64(b.class)<<40+uint64(b.start)+1)
	var st ECCClassStats
	scale := cfg.Classes[b.class].RateScale
	for i := 0; i < b.count; i++ {
		lambda := cfg.BaseRate * scale * src.LogNormal(0, cfg.TailSigma)
		for m := 0; m < cfg.Months; m++ {
			events := src.Poisson(lambda)
			for e := int64(0); e < events; e++ {
				classifyEvent(src, multiFlipP, maxFlips, &st)
			}
		}
	}
	return st
}

// RunECCSharded simulates the fleet's error events and classifies each
// under the standard ECC trio, sharded like RunSharded: fixed blocks
// of blockDIMMs DIMMs, each on its own seed substream, merged in block
// order — bit-identical for every worker count. multiFlipP is the
// per-extra-bit chain probability of an event's multiplicity (events
// have 1 + Geometric(multiFlipP) strikes, capped at maxFlips).
func RunECCSharded(cfg Config, multiFlipP float64, maxFlips int, seed uint64, workers int) []ECCClassStats {
	blocks := planBlocks(cfg)
	results := make([]ECCClassStats, len(blocks))
	par.Shard(workers, len(blocks), func(bi int) {
		results[bi] = simulateECCBlock(cfg, multiFlipP, maxFlips, seed, blocks[bi])
	})
	out := make([]ECCClassStats, len(cfg.Classes))
	for bi, b := range blocks {
		out[b.class].add(results[bi])
	}
	for ci, cls := range cfg.Classes {
		out[ci].Label = cls.Label
		out[ci].DIMMs = cls.DIMMs
	}
	return out
}
