// Package repro is a full simulation-based reproduction of Onur
// Mutlu's DATE 2017 invited paper "The RowHammer Problem and Other
// Issues We May Face as Memory Becomes Denser".
//
// The paper surveys how density scaling turned memory reliability into
// a security problem: the RowHammer disturbance mechanism in DRAM, the
// attacks built on it, the mitigation space (with PARA as the proposed
// long-term fix), the retention-testing problem (data-pattern
// dependence and variable retention time), the parallel error ecology
// of MLC NAND flash (retention, read disturb, program interference,
// the two-step programming exploit) and the controller mechanisms that
// tame it, and the wear-attack exposure of emerging memories.
//
// Because every result in the paper was measured on real silicon we
// cannot touch, this repository substitutes calibrated behavioural
// models (see DESIGN.md for the substitution table) and rebuilds the
// entire stack in Go:
//
//   - internal/dram, internal/disturb, internal/retention: the DRAM
//     device (one rank) and its two failure mechanisms, plus
//     dram.Topology describing channel/rank shape. Both fault models
//     use dense flat-slice indexes with batched dispatch — hammer
//     cycles up to a fault-model horizon (dram.CycleFaultModel,
//     Device.HammerCycle) and whole-bank refresh storms
//     (dram.BankRefreshFaultModel, Device.RefreshBankAll) — with the
//     seed implementations retained as test-only equivalence oracles
//     (disturb.Reference, retention.Reference);
//     see README.md for the batching contracts and measured speedups.
//   - internal/memctrl: the memory-controller stack: pluggable
//     address-mapping policies (row-interleaved, channel-interleaved,
//     XOR bank hash), the per-channel multi-rank Controller with the
//     pluggable mitigation registry — first generation (PARA, CRA,
//     TRR, ANVIL) and the second-generation frontier (Graphene top-k
//     tracking, TWiCe pruned counters, attachable RefreshScaling) —
//     the controller-integrated RAIDR multi-rate refresh policy
//     (MultiRateRefresh driving raidr.Plan bins through the refresh
//     engine), the one hammer kernel (Controller.HammerRowsRanked,
//     closed-form chunks up to the mitigations' activation horizons),
//     and the multi-channel MemorySystem with channel-sharded
//     execution; a single device is its 1-channel 1-rank case.
//   - internal/ecc, internal/spd: SECDED(72,64), the on-die and
//     chipkill capability models (every code's verdict on an error
//     pattern lives here), and the adjacency ROM
//   - internal/modules: the 129-module population behind Figure 1,
//     with per-device RNG substreams for multi-device topologies
//   - internal/attack: hammer kernels (including the TRRespass-style
//     adaptive N-sided family with decoy rows), mapping-aware
//     adjacency probing, topology-wide templating, cross-bank parallel
//     hammering, privilege escalation, cross-VM
//   - internal/workload: flat-address access-stream generators,
//     decoded by the active mapping policy
//   - internal/flash, internal/ftl: MLC NAND in the threshold-voltage
//     domain plus FCR, RFR, NAC and read-disturb management
//   - internal/pcm: Start-Gap wear leveling under write attack
//   - internal/profile, internal/core, internal/exp: profiling over
//     bank sets, whole devices and whole topologies (CampaignSystem,
//     channel-sharded), analysis, topology-aware system building
//     (core.Build), the E1-E84 experiment registry (E40-E44 the
//     mitigation-frontier Pareto sweeps, E50-E52 the retention /
//     profiling / multi-rate-refresh stack at topology scale), and the
//     parallel experiment Runner (experiment-level pool plus
//     channel-level sharding) with its machine-readable benchmark
//     summaries (BENCH_*.json)
//   - internal/fieldstudy: the DSN'15-class fleet Monte Carlo, with
//     the block-sharded RunSharded engine scaling it to ~1M DIMMs
//   - internal/par: the one worker pool (par.Shard) every sharded
//     sweep fans out through: channels, dies, fleet blocks, arrays,
//     tournament groups and the experiment Runner
//
// This facade re-exports the handful of entry points downstream code
// needs; everything else is importable within the module from the
// internal packages directly.
package repro

import (
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/modules"
	"repro/internal/stats"
)

// System is a fully wired simulated memory system.
type System = core.System

// Options configures Build.
type Options = core.Options

// Module is one synthetic DIMM from the study population.
type Module = modules.Module

// Build instantiates a module as a simulated system.
func Build(m *Module, opt Options) *System { return core.Build(m, opt) }

// Population returns the 129-module study population.
func Population(seed uint64) []Module { return modules.Population(seed) }

// Experiments lists the registered experiments (E1..E84).
func Experiments() []exp.Experiment { return exp.All() }

// Runner executes experiments on a parallel worker pool; results are
// deterministic in experiment-ID order and bit-identical for every
// worker count.
type Runner = exp.Runner

// RunResult is one experiment outcome from a Runner.
type RunResult = exp.RunResult

// RunExperiment executes one experiment by ID, its sharded sweeps
// fanned out to runtime.GOMAXPROCS goroutines.
func RunExperiment(id string, seed uint64) (*stats.Table, bool) {
	e, ok := exp.ByID(id)
	if !ok {
		return nil, false
	}
	return e.Run(exp.NewEnv(seed, 0)), true
}
