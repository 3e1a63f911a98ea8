package exp

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/stats"
)

// cheapSubset returns fast experiments for runner tests, with enough of
// them to keep a small worker pool busy.
func cheapSubset(t *testing.T) []Experiment {
	t.Helper()
	var out []Experiment
	for _, id := range []string{"E2", "E10", "E25", "E26", "E29"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		out = append(out, e)
	}
	return out
}

// TestRunnerParallelMatchesSerial is the determinism guarantee: tables
// are bit-identical for every worker count. It is also the concurrency
// exercise that `go test -race` leans on.
func TestRunnerParallelMatchesSerial(t *testing.T) {
	exps := cheapSubset(t)
	serial := (&Runner{Workers: 1, Seed: 3}).Run(exps)
	parallel := (&Runner{Workers: 4, Seed: 3}).Run(exps)
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
	exps := cheapSubset(t)
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
	results := (&Runner{Workers: 2, Seed: 9}).Run(cheapSubset(t)[:2])
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
	again := NewSummary((&Runner{Workers: 1, Seed: 9}).Run(cheapSubset(t)[:2]), 9, 1, time.Second)
	for i := range again.Experiments {
		if again.Experiments[i].TableSHA256 != back.Experiments[i].TableSHA256 {
			t.Errorf("%s: table hash differs across runs", again.Experiments[i].ID)
		}
	}
}
