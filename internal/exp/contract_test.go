package exp

// The behaviour contract: pinned table hashes and shard invariance. Go
// runs test files in name order; this one sorts ahead of the property
// tests, so they read the seed-1 tables its concurrent pass memoised.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/par"
	"repro/internal/stats"
)

// goldenPaths are the pinned table records, one per acceptance seed.
var goldenPaths = []string{
	filepath.Join("testdata", "tables_seed1.json"),
	filepath.Join("testdata", "tables_seed5.json"),
}

// goldenTables loads the per-experiment table hashes of a testdata
// table record (the suite summary schema, hashes only).
func goldenTables(t *testing.T, path string) (uint64, map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s Summary
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	want := map[string]string{}
	for _, e := range s.Experiments {
		want[e.ID] = e.TableSHA256
	}
	return s.Seed, want
}

// triple names one experiment run: experiment, seed and shard fan-out
// (<= 0 is the default fan-out, as for Runner.ShardWorkers).
type triple struct {
	id     string
	seed   uint64
	shards int
}

// tableRun is one memoised experiment run. tab is never handed out:
// table returns copies, so no test can corrupt another's result.
type tableRun struct {
	once sync.Once
	e    Experiment
	env  Env
	tab  *stats.Table
	sha  string
}

func (r *tableRun) run() *tableRun {
	r.once.Do(func() {
		r.tab = r.e.Run(r.env)
		sum := sha256.Sum256([]byte(r.tab.String()))
		r.sha = hex.EncodeToString(sum[:])
	})
	return r
}

// runs holds every tableRun of the test process, keyed by triple with
// the shard fan-out resolved, so each triple runs at most once however
// many tests read it.
var runs sync.Map

// memo returns the memoised run of a triple, executed or not.
func memo(t *testing.T, tr triple) *tableRun {
	t.Helper()
	e, ok := ByID(tr.id)
	if !ok {
		t.Fatalf("%s not registered", tr.id)
	}
	env := NewEnv(tr.seed, tr.shards)
	r, _ := runs.LoadOrStore(triple{tr.id, env.Seed, env.Shards}, &tableRun{e: e, env: env})
	return r.(*tableRun)
}

// table returns a copy of experiment id's table at the given seed and
// shard fan-out.
func table(t *testing.T, id string, seed uint64, shards int) *stats.Table {
	t.Helper()
	r := memo(t, triple{id, seed, shards}).run()
	c := *r.tab
	c.Columns, c.Notes = slices.Clone(c.Columns), slices.Clone(c.Notes)
	c.Rows = make([][]string, len(r.tab.Rows))
	for i, row := range r.tab.Rows {
		c.Rows[i] = slices.Clone(row)
	}
	return &c
}

// shas returns each triple's table sha256, as Summary records it,
// running the triples not yet memoised concurrently on par.Shard.
func shas(t *testing.T, triples []triple) []string {
	t.Helper()
	rs := make([]*tableRun, len(triples))
	for i, tr := range triples {
		rs[i] = memo(t, tr)
	}
	par.Shard(runtime.GOMAXPROCS(0), len(rs), func(i int) { rs[i].run() })
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.sha
	}
	return out
}

// TestTablesMatchGolden is the behaviour contract of every performance
// change: all experiment tables, at seeds 1 and 5, hash exactly as
// recorded in testdata/tables_seed1.json and testdata/tables_seed5.json.
func TestTablesMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole experiment suite twice")
	}
	for _, path := range goldenPaths {
		seed, want := goldenTables(t, path)
		var triples []triple
		for _, e := range All() {
			triples = append(triples, triple{e.ID, seed, 0})
		}
		if len(triples) != len(want) {
			t.Errorf("seed %d: %d experiments registered, %s records %d", seed, len(triples), path, len(want))
		}
		for i, sha := range shas(t, triples) {
			if id := triples[i].id; sha != want[id] {
				t.Errorf("seed %d: %s table sha256 %s, %s records %s", seed, id, sha, path, want[id])
			}
		}
	}
}

// TestShardInvariant is the acceptance contract of the sharded
// experiment families: every member renders its pinned table at every
// shard fan-out. E42 has no pin at its seed 3, so there each fan-out
// must render the serial run's table.
func TestShardInvariant(t *testing.T) {
	pins := map[uint64]map[string]string{}
	for _, path := range goldenPaths {
		seed, want := goldenTables(t, path)
		pins[seed] = want
	}
	for _, f := range []struct {
		name   string
		ids    []string
		seeds  []uint64
		shards []int
		short  bool // runs under -short too
	}{
		{"scale", []string{"E50", "E51", "E52"}, []uint64{1, 5}, []int{1, 3, 7}, false},
		{"flash", []string{"E60", "E62", "E63"}, []uint64{1, 5}, []int{1, 3, 7}, false},
		{"exploit", []string{"E81", "E82", "E83", "E84"}, []uint64{1, 5}, []int{1, 3, 7}, false},
		{"ecc", []string{"E70", "E71", "E72", "E73"}, []uint64{1, 5}, []int{1, 3}, true},
		{"frontier", []string{"E42"}, []uint64{3}, []int{1, 2, 4, 8}, true},
	} {
		t.Run(f.name, func(t *testing.T) {
			if testing.Short() && !f.short {
				t.Skip("multi-seed experiment sweep")
			}
			var triples []triple
			for _, id := range f.ids {
				for _, seed := range f.seeds {
					for _, shards := range f.shards {
						triples = append(triples, triple{id, seed, shards})
					}
				}
			}
			for i, sha := range shas(t, triples) {
				tr := triples[i]
				want, pinned := pins[tr.seed][tr.id]
				if !pinned {
					want = shas(t, []triple{{tr.id, tr.seed, 1}})[0]
				}
				if sha != want {
					t.Errorf("%s seed %d shards %d: table sha256 %s, want %s (pinned: %t)", tr.id, tr.seed, tr.shards, sha, want, pinned)
				}
			}
		})
	}
}
