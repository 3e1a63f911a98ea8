package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/stats"
)

// synthetic returns n cheap in-test experiments for the runner tests,
// enough to keep a small worker pool busy. Each draws its table from
// Env.Seed and fans its rows out over Env.Shards through par.Shard, as
// the sharded experiments do, so a runner that dropped either would
// change or race on the tables.
func synthetic(n int) []Experiment {
	out := make([]Experiment, n)
	for i := range out {
		num := 900 + i
		out[i] = Experiment{
			ID: fmt.Sprintf("E%d", num), Num: num, Title: "synthetic", Anchor: "runner tests",
			Run: func(env Env) *stats.Table {
				src := rng.New(env.Seed + uint64(num))
				streams := make([]*rng.Stream, 16)
				for r := range streams {
					streams[r] = src.Split()
				}
				sums := make([]uint64, len(streams))
				par.Shard(env.Shards, len(streams), func(r int) {
					for k := 0; k < 2000; k++ {
						sums[r] += streams[r].Uint64n(1000)
					}
				})
				tab := stats.NewTable(fmt.Sprintf("E%d synthetic", num), "row", "sum")
				for r, v := range sums {
					tab.AddRowf(r, v)
				}
				return tab
			},
		}
	}
	return out
}

// TestRunnerParallelMatchesSerial is the determinism guarantee: tables
// are bit-identical for every worker count. It is also the concurrency
// exercise that `go test -race` leans on.
func TestRunnerParallelMatchesSerial(t *testing.T) {
	exps := synthetic(5)
	serial := (&Runner{Workers: 1, ShardWorkers: 1, Seed: 3}).Run(exps)
	parallel := (&Runner{Workers: 4, ShardWorkers: 3, Seed: 3}).Run(exps)
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("%s: errs %v / %v", serial[i].ID, serial[i].Err, parallel[i].Err)
		}
		if serial[i].ID != parallel[i].ID {
			t.Fatalf("order differs at %d: %s vs %s", i, serial[i].ID, parallel[i].ID)
		}
		if serial[i].Table.String() != parallel[i].Table.String() {
			t.Errorf("%s: tables differ between serial and parallel runs", serial[i].ID)
		}
	}
}

func TestRunnerOrdersResultsByNum(t *testing.T) {
	exps := synthetic(5)
	// Present them shuffled; results must come back in ID order.
	shuffled := []Experiment{exps[3], exps[0], exps[4], exps[2], exps[1]}
	results := (&Runner{Workers: 2, Seed: 1}).Run(shuffled)
	for i := 1; i < len(results); i++ {
		if results[i-1].Num >= results[i].Num {
			t.Fatalf("results out of order: %s before %s", results[i-1].ID, results[i].ID)
		}
	}
	for _, r := range results {
		if r.Wall <= 0 {
			t.Errorf("%s: wall time not recorded", r.ID)
		}
	}
}

func TestRunnerRecoversPanic(t *testing.T) {
	boom := Experiment{ID: "E998", Num: 998, Title: "panics", Run: func(Env) *stats.Table {
		panic("kaboom")
	}}
	ok := Experiment{ID: "E999", Num: 999, Title: "fine", Run: func(Env) *stats.Table {
		return stats.NewTable("ok", "col")
	}}
	results := (&Runner{Workers: 2, Seed: 1}).Run([]Experiment{ok, boom})
	if results[0].Err == nil {
		t.Fatal("panic not recovered into Err")
	}
	if results[0].Table != nil {
		t.Fatal("panicked run should have no table")
	}
	if results[1].Err != nil || results[1].Table == nil {
		t.Fatal("healthy experiment affected by sibling panic")
	}
}

func TestSummaryJSON(t *testing.T) {
	results := (&Runner{Workers: 2, Seed: 9}).Run(synthetic(2))
	s := NewSummary(results, 9, 2, 1500*time.Millisecond)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("summary is not valid JSON: %v", err)
	}
	if back.Schema != "repro-bench/v1" || len(back.Experiments) != 2 {
		t.Fatalf("roundtrip mismatch: %+v", back)
	}
	for _, e := range back.Experiments {
		if e.TableSHA256 == "" || e.WallMS < 0 {
			t.Fatalf("incomplete experiment summary: %+v", e)
		}
	}
	// The table hash is the cross-version equivalence anchor: same
	// seed, same code => same hash.
	again := NewSummary((&Runner{Workers: 1, Seed: 9}).Run(synthetic(2)), 9, 1, time.Second)
	for i := range again.Experiments {
		if again.Experiments[i].TableSHA256 != back.Experiments[i].TableSHA256 {
			t.Errorf("%s: table hash differs across runs", again.Experiments[i].ID)
		}
	}
}
