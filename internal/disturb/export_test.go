package disturb

import (
	"repro/internal/dram"
	"repro/internal/rng"
)

// DrawUnmemoized draws a model the way NewModel does on a memo miss,
// without consulting or filling the memo.
var DrawUnmemoized = drawFresh

// MemoHolds reports whether the process-wide memo holds the population
// drawn from geom, p and a stream at st.
func MemoHolds(geom dram.Geometry, p Params, st rng.State) bool {
	populations.mu.Lock()
	defer populations.mu.Unlock()
	return populations.entries[newMemoKey(geom, p, st)] != nil
}
