package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

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

// TestTablesMatchGolden is the behaviour contract of every performance
// change: all experiment tables, at seeds 1 and 5, hash exactly as
// recorded in testdata/tables_seed1.json and testdata/tables_seed5.json.
func TestTablesMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole experiment suite twice")
	}
	for _, path := range []string{
		filepath.Join("testdata", "tables_seed1.json"),
		filepath.Join("testdata", "tables_seed5.json"),
	} {
		seed, want := goldenTables(t, path)
		r := &Runner{Seed: seed}
		got := NewSummary(r.RunAll(), seed, r.EffectiveWorkers(), 0)
		if len(got.Experiments) != len(want) {
			t.Errorf("seed %d: %d experiments ran, %s records %d", seed, len(got.Experiments), path, len(want))
		}
		for _, e := range got.Experiments {
			if e.Err != "" {
				t.Errorf("seed %d: %s failed: %s", seed, e.ID, e.Err)
			} else if e.TableSHA256 != want[e.ID] {
				t.Errorf("seed %d: %s table sha256 %s, %s records %s", seed, e.ID, e.TableSHA256, path, want[e.ID])
			}
		}
	}
}
