// Package fieldstudy simulates the large-scale in-the-field DRAM error
// studies the paper leans on in Section III ("There have been recent
// large-scale field studies of memory errors showing that both DRAM
// and NAND flash memory technologies are becoming less reliable" —
// Meza et al. DSN 2015, Sridharan et al. SC 2012/2013, ASPLOS 2015).
//
// Those studies' recurring findings, which the model reproduces, are:
//
//   - error rates grow with chip density generation;
//   - errors are heavily concentrated: a small fraction of DIMMs
//     produces the large majority of error events (fleet error counts
//     are far more skewed than a Poisson process would be, because
//     per-DIMM latent rates are heavy-tailed);
//   - a persistent fraction of correctable-error DIMMs later develop
//     uncorrectable errors, motivating page retirement and stronger
//     codes.
//
// The model: each DIMM draws a latent monthly error rate from a
// heavy-tailed (lognormal) distribution whose scale grows with the
// DIMM's density generation; monthly correctable-error counts are
// Poisson with that latent rate; a DIMM with latent rate lambda
// suffers an uncorrectable event in a month with probability
// proportional to lambda (multi-bit coincidence in one ECC word).
package fieldstudy

import (
	"math"
	"sort"

	"repro/internal/par"
	"repro/internal/rng"
)

// DensityClass is a DRAM density generation deployed in the fleet.
// The JSON tags are the campaign service's wire schema.
type DensityClass struct {
	// Label names the generation (e.g. "1Gb", "2Gb", "4Gb").
	Label string `json:"label"`
	// RateScale multiplies the fleet-wide base error rate; denser
	// generations have higher scales in the field studies.
	RateScale float64 `json:"rate_scale"`
	// DIMMs is how many modules of this class the fleet has.
	DIMMs int `json:"dimms"`
}

// Config parameterizes the fleet.
type Config struct {
	Classes []DensityClass `json:"classes"`
	// BaseRate is the median monthly correctable-error rate of the
	// oldest generation.
	BaseRate float64 `json:"base_rate"`
	// TailSigma is the lognormal sigma of per-DIMM latent rates; the
	// field studies' concentration implies a heavy tail (>2).
	TailSigma float64 `json:"tail_sigma"`
	// UEPerCE is the probability scale of an uncorrectable event per
	// unit of latent rate per month.
	UEPerCE float64 `json:"ue_per_ce"`
	// Months simulated.
	Months int `json:"months"`
}

// DefaultConfig mirrors the scale relationships of the DSN 2015 study
// (thousands of servers, three density generations, rising rates).
func DefaultConfig() Config {
	return Config{
		Classes: []DensityClass{
			{"1Gb", 1.0, 4000},
			{"2Gb", 2.2, 6000},
			{"4Gb", 4.5, 6000},
		},
		BaseRate:  0.001, // median CEs per DIMM-month, oldest class
		TailSigma: 2.4,
		UEPerCE:   3e-3,
		Months:    12,
	}
}

// DIMMRecord is one module's simulated service history.
type DIMMRecord struct {
	Class         string
	LatentRate    float64
	Correctable   int64
	Uncorrectable int64
}

// ClassStats aggregates one density class.
type ClassStats struct {
	Label                  string  `json:"label"`
	DIMMs                  int     `json:"dimms"`
	CEPerDIMMMonth         float64 `json:"ce_per_dimm_month"`
	FracDIMMsWithCE        float64 `json:"frac_dimms_with_ce"`
	UEPerThousandDIMMMonth float64 `json:"ue_per_thousand_dimm_month"`
	// Top1PctShare is the fraction of all correctable errors produced
	// by the top 1% of DIMMs — the concentration metric.
	Top1PctShare float64 `json:"top1pct_share"`
}

// Result is the full fleet outcome.
type Result struct {
	Records []DIMMRecord
	Classes []ClassStats
}

// blockDIMMs is the fixed shard-block size of RunSharded: every block
// of this many DIMMs draws from its own seed-derived substream, so the
// simulated fleet is a pure function of the seed no matter how many
// workers execute the blocks.
const blockDIMMs = 8192

// block is one shard unit: a contiguous run of DIMMs of one class.
type block struct {
	class, start, count int
}

// blockResult is one block's aggregated outcome. done distinguishes a
// computed (possibly all-zero) result from a pending block when
// results are restored from a checkpoint.
type blockResult struct {
	done   bool
	ce     []int64
	ceSum  int64
	ueSum  int64
	withCE int
}

// planBlocks deterministically partitions the fleet into shard blocks.
// The plan is a pure function of the config, so a resumed campaign
// re-derives exactly the block list its checkpoint indexes into.
func planBlocks(cfg Config) []block {
	var blocks []block
	for ci, cls := range cfg.Classes {
		for start := 0; start < cls.DIMMs; start += blockDIMMs {
			count := cls.DIMMs - start
			if count > blockDIMMs {
				count = blockDIMMs
			}
			blocks = append(blocks, block{class: ci, start: start, count: count})
		}
	}
	return blocks
}

// simulateBlock rolls one block of DIMMs. The substream is keyed on
// (class, block start), never on the block's execution slot. The class
// sits above bit 40 so the key cannot collide until a class holds 2^40
// DIMMs.
func simulateBlock(cfg Config, seed uint64, b block) blockResult {
	src := rng.Sub(seed, uint64(b.class)<<40+uint64(b.start)+1)
	r := blockResult{done: true, ce: make([]int64, b.count)}
	scale := cfg.Classes[b.class].RateScale
	for i := range r.ce {
		ce, ue, _ := simulateDIMM(cfg, scale, src)
		r.add(i, ce, ue)
	}
	return r
}

// add records DIMM i's service counts.
func (r *blockResult) add(i int, ce, ue int64) {
	r.ce[i] = ce
	r.ceSum += ce
	r.ueSum += ue
	if ce > 0 {
		r.withCE++
	}
}

// mergeBlocks folds per-block results into per-class statistics,
// always in block order, so the outcome is independent of execution
// order and of how many of the blocks were restored from a checkpoint.
func mergeBlocks(cfg Config, blocks []block, results []blockResult) []ClassStats {
	out := make([]ClassStats, len(cfg.Classes))
	perClassCE := make([][]int64, len(cfg.Classes))
	for bi, b := range blocks {
		r := results[bi]
		out[b.class].CEPerDIMMMonth += float64(r.ceSum)
		out[b.class].UEPerThousandDIMMMonth += float64(r.ueSum)
		out[b.class].FracDIMMsWithCE += float64(r.withCE)
		perClassCE[b.class] = append(perClassCE[b.class], r.ce...)
	}
	for ci, cls := range cfg.Classes {
		dimmMonths := float64(cls.DIMMs * cfg.Months)
		s := &out[ci]
		s.Label = cls.Label
		s.DIMMs = cls.DIMMs
		totalCE := s.CEPerDIMMMonth
		s.CEPerDIMMMonth = totalCE / dimmMonths
		s.UEPerThousandDIMMMonth = s.UEPerThousandDIMMMonth / dimmMonths * 1000
		s.FracDIMMsWithCE /= float64(cls.DIMMs)
		ces := perClassCE[ci]
		sort.Slice(ces, func(i, j int) bool { return ces[i] > ces[j] })
		top := int(math.Ceil(float64(len(ces)) * 0.01))
		var topCE int64
		for i := 0; i < top; i++ {
			topCE += ces[i]
		}
		if totalCE > 0 {
			s.Top1PctShare = float64(topCE) / totalCE
		}
	}
	return out
}

// simulateDIMM rolls one DIMM's service history from the stream and
// returns it with the DIMM's latent monthly error rate.
func simulateDIMM(cfg Config, scale float64, src *rng.Stream) (ce, ue int64, lambda float64) {
	lambda = cfg.BaseRate * scale * src.LogNormal(0, cfg.TailSigma)
	for m := 0; m < cfg.Months; m++ {
		ce += src.Poisson(lambda)
		pUE := cfg.UEPerCE * lambda
		if pUE > 1 {
			pUE = 1
		}
		if src.Bool(pUE) {
			ue++
		}
	}
	return ce, ue, lambda
}

// RunSharded simulates the fleet like Run but scales to millions of
// DIMMs: DIMMs are partitioned into fixed blocks of blockDIMMs, each
// block draws from its own substream of the seed, and blocks execute
// on up to workers goroutines. The result is bit-identical for every
// worker count (blocks share no state and merge in block order), which
// is what lets the ~1M-DIMM experiment (E52) ride the same sharded
// engine as the topology experiments. Per-DIMM records are not
// retained — only the per-class statistics, including the top-1%
// concentration share computed over all per-DIMM CE counts.
func RunSharded(cfg Config, seed uint64, workers int) []ClassStats {
	blocks := planBlocks(cfg)
	results := make([]blockResult, len(blocks))
	par.Shard(workers, len(blocks), func(bi int) {
		results[bi] = simulateBlock(cfg, seed, blocks[bi])
	})
	return mergeBlocks(cfg, blocks, results)
}

// Run simulates the fleet from one stream, keeping every DIMM's record.
// Deterministic given the stream. Each class is one block of
// mergeBlocks, RunSharded's merge; its integer sums stay far below
// 2^53, so they are exact in float64.
func Run(cfg Config, src *rng.Stream) Result {
	var res Result
	blocks := make([]block, len(cfg.Classes))
	results := make([]blockResult, len(cfg.Classes))
	for ci, cls := range cfg.Classes {
		blocks[ci] = block{class: ci, count: cls.DIMMs}
		results[ci].ce = make([]int64, cls.DIMMs)
		for i := range results[ci].ce {
			ce, ue, lambda := simulateDIMM(cfg, cls.RateScale, src)
			results[ci].add(i, ce, ue)
			res.Records = append(res.Records, DIMMRecord{
				Class: cls.Label, LatentRate: lambda, Correctable: ce, Uncorrectable: ue,
			})
		}
	}
	res.Classes = mergeBlocks(cfg, blocks, results)
	return res
}
