package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/exp"
)

// paperHot runs the experiments that take the largest share of the
// suite's wall time (E5, E21, E73 in BENCH_6) through the experiment
// runner: one worker, channel shards up to shardWorkers. An op is one
// experiment. Its layers are reached from inside the experiments, so
// its traced run records only one span per experiment.
type paperHot struct {
	ids    []string
	seed   uint64
	exps   []exp.Experiment
	runner exp.Runner
	spans  []int
}

func newPaperHot(seed uint64, tiny bool) *paperHot {
	ids := []string{"E5", "E21", "E73"}
	if tiny {
		ids = []string{"E2", "E4"}
	}
	return &paperHot{ids: ids, seed: seed}
}

func (w *paperHot) channels() int { return 0 }

func (w *paperHot) setup(tr *tracer) error {
	w.exps = w.exps[:0]
	w.spans = w.spans[:0]
	for _, id := range w.ids {
		e, ok := exp.ByID(id)
		if !ok {
			return fmt.Errorf("experiment %s is not registered", id)
		}
		w.exps = append(w.exps, e)
		if tr != nil {
			w.spans = append(w.spans, tr.id("exp."+id))
		}
	}
	w.runner = exp.Runner{Workers: 1, ShardWorkers: shardWorkers(), Seed: w.seed}
	return nil
}

func (w *paperHot) pass(tr *tracer, ops *opTimer) (passResult, error) {
	res := passResult{layer: map[string]float64{}, tables: map[string]string{}}
	t := tr.main()
	d := newDigest()
	for i, e := range w.exps {
		ops.begin()
		if t != nil {
			t.begin(w.spans[i])
		}
		r := w.runner.Run([]exp.Experiment{e})[0]
		if t != nil {
			t.end()
		}
		if r.Err != nil {
			ops.end(r.Err)
			return res, r.Err
		}
		sum := sha256.Sum256([]byte(r.Table.String()))
		sha := hex.EncodeToString(sum[:])
		ops.end(nil)
		res.tables[e.ID] = sha
		d.str(e.ID)
		d.str(sha)
		p := "exp." + e.ID
		res.layer[p+".allocs"] = float64(r.Allocs)
		res.layer[p+".alloc_mb"] = float64(r.AllocBytes) / 1e6
		res.layer[p+".wall_s"] = r.Wall.Seconds()
	}
	res.digest = d.hex()
	return res, nil
}
