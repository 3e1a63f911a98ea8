package flash

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/rng"
)

// Topology describes the shape of an SSD-scale flash system: how many
// dies it has, how many planes per die, and how many blocks per
// plane. It mirrors dram.Topology, which shaped the channel/rank
// scale-out of the DRAM stack: the die is the unit of independent
// physics (each die draws its own RNG substream of the fleet seed),
// and the sharded sweeps fan dies out across workers with
// bit-identical results for every worker count.
//
// The zero value is not valid; fill the fields and Validate.
type Topology struct {
	// Dies is the number of independent flash dies. Each die owns a
	// seed-derived RNG substream, so per-die simulations are a pure
	// function of (seed, die) no matter which worker executes them.
	Dies int
	// Planes is the number of planes per die.
	Planes int
	// BlocksPerPlane is the number of blocks in each plane.
	BlocksPerPlane int
}

// Validate reports whether the topology is usable.
func (t Topology) Validate() error {
	if t.Dies <= 0 || t.Planes <= 0 || t.BlocksPerPlane <= 0 {
		return fmt.Errorf("flash: invalid topology %+v", t)
	}
	return nil
}

// String formats the topology for result tables, e.g. "4d x 2pl x 8blk".
func (t Topology) String() string {
	return fmt.Sprintf("%dd x %dpl x %dblk", t.Dies, t.Planes, t.BlocksPerPlane)
}

// DieStream derives die's independent RNG substream of the fleet
// seed (rng.Sub, the substream discipline the DRAM topology and
// fieldstudy engines use); the +1 keeps die 0 off the raw fleet seed.
func (t Topology) DieStream(seed uint64, die int) *rng.Stream {
	return rng.Sub(seed, uint64(die)+1)
}

// ShardDies runs fn once per die on up to workers goroutines, handing
// each invocation the die index and the die's own substream. fn must
// confine its writes to per-die result slots (index by the die
// argument); under that contract the outcome is bit-identical for
// every worker count, because no state is shared between dies and the
// caller merges slots in die order. workers < 1 means one worker.
func (t Topology) ShardDies(seed uint64, workers int, fn func(die int, src *rng.Stream)) {
	par.Shard(workers, t.Dies, func(die int) { fn(die, t.DieStream(seed, die)) })
}
