package ftl

// SSD-scale sharded sweeps: the FTL endurance searches promoted from
// one probe block to whole flash.Topology fleets. Every die draws its
// own substream of the fleet seed and writes only its own result
// slot, so — exactly like fieldstudy.RunSharded and the DRAM
// channel sharding — the outcome is bit-identical for every worker
// count and safe under -race.

import (
	"repro/internal/flash"
	"repro/internal/rng"
)

// FrontierSpec selects one point of the RBER/lifetime frontier: an
// ECC strength, an FCR refresh period, and a read-disturb stress
// level applied before the decode probes.
type FrontierSpec struct {
	ECC         ECC
	PeriodDays  float64
	StressReads int64
}

// FrontierPoint is the fleet-aggregated outcome at one spec.
type FrontierPoint struct {
	Spec FrontierSpec
	// Endurance per die, indexed by die — retained so equivalence
	// tables can compare sharded and serial runs element-wise.
	PerDie []int
	// MeanEndurance averages the per-die endurance bounds.
	MeanEndurance float64
	// MinEndurance/MaxEndurance bracket the die-to-die spread.
	MinEndurance, MaxEndurance int
	// LifetimeDays divides the mean endurance by the effective daily
	// wear (host writes plus the refresh cost of the period).
	LifetimeDays float64
}

// frontierStride separates per-spec sub-seeds; it is a different odd
// constant from the per-die golden-ratio stride in DieStream so
// (spec, die) substreams cannot alias at small indices.
const frontierStride = 0xbf58476d1ce4e5b9

// EnduranceFrontier maps the spec grid across the topology's dies:
// for every spec, every die runs an independent
// MaxEnduranceAtAgeStressed search from its own substream, sharded
// over workers. The per-die endurance vector (and hence every
// aggregate) is bit-identical for every worker count.
func EnduranceFrontier(p flash.Params, cfg LifetimeConfig, topo flash.Topology, specs []FrontierSpec, seed uint64, workers int) []FrontierPoint {
	out := make([]FrontierPoint, len(specs))
	for si, spec := range specs {
		pt := FrontierPoint{Spec: spec, PerDie: make([]int, topo.Dies)}
		subSeed := seed + frontierStride*uint64(si+1)
		topo.ShardDies(subSeed, workers, func(die int, src *rng.Stream) {
			pt.PerDie[die] = MaxEnduranceAtAgeStressed(p, spec.ECC, cfg, spec.PeriodDays*24, spec.StressReads, src)
		})
		pt.MinEndurance, pt.MaxEndurance = pt.PerDie[0], pt.PerDie[0]
		sum := 0
		for _, e := range pt.PerDie {
			sum += e
			if e < pt.MinEndurance {
				pt.MinEndurance = e
			}
			if e > pt.MaxEndurance {
				pt.MaxEndurance = e
			}
		}
		pt.MeanEndurance = float64(sum) / float64(topo.Dies)
		wearPerDay := cfg.PEPerDay + 1/spec.PeriodDays
		pt.LifetimeDays = pt.MeanEndurance / wearPerDay
		out[si] = pt
	}
	return out
}
