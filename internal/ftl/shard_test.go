package ftl

import (
	"reflect"
	"testing"

	"repro/internal/flash"
)

// smallProbe keeps the bisection probes cheap enough for worker-count
// matrix tests.
func smallProbe() LifetimeConfig {
	return LifetimeConfig{PEPerDay: 5, RetentionSpecDays: 90, ProbeWLs: 1, ProbeCells: 1024}
}

func TestEnduranceFrontierShardInvariant(t *testing.T) {
	p := flash.DefaultParams()
	cfg := smallProbe()
	topo := flash.Topology{Dies: 4, Planes: 1, BlocksPerPlane: 1}
	specs := []FrontierSpec{
		{ECC: ECC{CodewordBits: 1024, T: 8}, PeriodDays: 30},
		{ECC: ECC{CodewordBits: 1024, T: 16}, PeriodDays: 30, StressReads: 100000},
	}
	serial := EnduranceFrontier(p, cfg, topo, specs, 42, 1)
	for _, workers := range []int{2, 4} {
		sharded := EnduranceFrontier(p, cfg, topo, specs, 42, workers)
		if !reflect.DeepEqual(serial, sharded) {
			t.Fatalf("frontier diverges at workers=%d", workers)
		}
	}
	// Per-spec substreams must differ: two specs at the same seed
	// should not replay identical per-die endurance vectors.
	if reflect.DeepEqual(serial[0].PerDie, serial[1].PerDie) {
		t.Fatal("spec substreams alias: identical per-die vectors")
	}
}
