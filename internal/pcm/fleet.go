package pcm

// Fleet-scale wear-leveling tournament: the single-array write attack
// of RunWriteAttack promoted to a fleet of arrays per scheme, with
// per-(scheme, array) RNG substreams and a worker pool — the same
// block-sharded discipline as fieldstudy.RunSharded, so results are
// bit-identical for every worker count.

import (
	"repro/internal/par"
	"repro/internal/rng"
)

// FleetConfig sizes the tournament.
type FleetConfig struct {
	// Arrays is the number of independent PCM arrays (dies) attacked
	// per scheme.
	Arrays int
	// Lines is the physical line count of each array.
	Lines int
	// MeanEndurance and CoV shape each array's per-line endurance
	// distribution.
	MeanEndurance float64
	CoV           float64
	// Psi is the start-gap rotation period in writes.
	Psi int
	// Target is the attacked logical line.
	Target int
	// MaxWrites bounds each attack for schemes that survive too long.
	MaxWrites uint64
}

// DefaultFleetConfig keeps the tournament at the E20 scale per array
// while multiplying the population enough for a min/mean/max spread.
func DefaultFleetConfig() FleetConfig {
	return FleetConfig{
		Arrays:        32,
		Lines:         128,
		MeanEndurance: 2e4,
		CoV:           0.15,
		Psi:           100,
		Target:        7,
		MaxWrites:     1e9,
	}
}

// SchemeStats aggregates one mapping scheme's fleet outcome.
type SchemeStats struct {
	Scheme string
	// MeanWrites / MinWrites / MaxWrites summarize writes-to-failure
	// across the fleet.
	MeanWrites           float64
	MinWrites, MaxWrites uint64
	// MeanFracIdeal is the mean of writes-to-failure over the
	// perfect-leveling bound (sum of line endurances).
	MeanFracIdeal float64
}

// fleetSchemes builds the tournament's mapper lineup for one array.
// The constructor draws any randomness it needs (the randomization
// layer's permutation) from the supplied per-(scheme, array) stream.
func fleetSchemes(cfg FleetConfig) []struct {
	name string
	mk   func(src *rng.Stream) Mapper
} {
	return []struct {
		name string
		mk   func(src *rng.Stream) Mapper
	}{
		{"none", func(*rng.Stream) Mapper { return Direct{} }},
		{"start-gap", func(*rng.Stream) Mapper { return NewStartGap(cfg.Lines, cfg.Psi) }},
		{"start-gap+random", func(src *rng.Stream) Mapper {
			return NewRandomized(NewStartGap(cfg.Lines, cfg.Psi), cfg.Lines-1, src)
		}},
	}
}

// RunFleetTournament attacks one logical line on cfg.Arrays
// independent arrays under each wear-leveling scheme, sharded over up
// to workers goroutines. Each (scheme, array) job derives its own
// substream (scheme above bit 40, mirroring the fieldstudy key) and
// writes only its own result slot; aggregation folds slots in fixed
// order, so the tournament is bit-identical for every worker count.
func RunFleetTournament(cfg FleetConfig, seed uint64, workers int) []SchemeStats {
	schemes := fleetSchemes(cfg)
	results := make([]AttackResult, len(schemes)*cfg.Arrays)
	par.Shard(workers, len(results), func(j int) {
		si, ai := j/cfg.Arrays, j%cfg.Arrays
		src := rng.Sub(seed, uint64(si)<<40+uint64(ai)+1)
		a := NewArray(cfg.Lines, cfg.MeanEndurance, cfg.CoV, src)
		m := schemes[si].mk(src)
		results[j] = RunWriteAttack(a, m, cfg.Target, cfg.MaxWrites)
	})
	out := make([]SchemeStats, len(schemes))
	for si, sch := range schemes {
		s := SchemeStats{Scheme: sch.name}
		var sumW, sumFrac float64
		for ai := 0; ai < cfg.Arrays; ai++ {
			r := results[si*cfg.Arrays+ai]
			if ai == 0 || r.WritesToFailure < s.MinWrites {
				s.MinWrites = r.WritesToFailure
			}
			s.MaxWrites = max(s.MaxWrites, r.WritesToFailure)
			sumW += float64(r.WritesToFailure)
			sumFrac += float64(r.WritesToFailure) / float64(r.IdealWrites)
		}
		s.MeanWrites = sumW / float64(cfg.Arrays)
		s.MeanFracIdeal = sumFrac / float64(cfg.Arrays)
		out[si] = s
	}
	return out
}
