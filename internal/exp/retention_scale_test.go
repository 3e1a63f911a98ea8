package exp

import (
	"testing"
)

func TestE50EscapesShrinkWithBattery(t *testing.T) {
	forSeeds(t, "E50", func(t *testing.T, rows [][]string) {
		// Per topology: escapes shrink as the battery improves but never
		// reach zero (VRT is memoryless).
		byTopo := map[string][][]string{}
		for _, r := range rows {
			byTopo[r[0]] = append(byTopo[r[0]], r)
		}
		if len(byTopo) < 2 {
			t.Fatalf("E50 covers %d topologies, want >= 2", len(byTopo))
		}
		for topo, trs := range byTopo {
			solid := cellFloat(t, trs[0][5])
			best := cellFloat(t, trs[len(trs)-1][5])
			if best > solid {
				t.Fatalf("%s: escapes grew with better profiling: %v -> %v", topo, solid, best)
			}
			if solid == 0 {
				t.Fatalf("%s: solid profiling should leak escapes", topo)
			}
			if best == 0 {
				t.Fatalf("%s: VRT escapes should survive the best battery", topo)
			}
		}
	})
}

func TestE51ExposureOnlyUnderGuessedMapping(t *testing.T) {
	forSeeds(t, "E51", func(t *testing.T, rows [][]string) {
		for _, r := range rows {
			policy, mult := r[0], r[1]
			saved := cellFloat(t, r[2])
			flips := cellFloat(t, r[3])
			if mult == "1" {
				if saved != 0 {
					t.Fatalf("%s x1: nominal plan saved %v%%", policy, saved)
				}
				if flips != 0 {
					t.Fatalf("%s x1: nominal refresh leaked %v flips", policy, flips)
				}
				continue
			}
			if saved <= 0 {
				t.Fatalf("%s x%s: slow bin saved nothing", policy, mult)
			}
			if policy == "row-interleaved" && flips == 0 {
				t.Fatalf("row-interleaved x%s: slow bin did not expose the victim", mult)
			}
			if policy != "row-interleaved" && flips != 0 {
				t.Fatalf("%s x%s: naive attacker should miss under a different mapping (%v flips)",
					policy, mult, flips)
			}
		}
	})
}

func TestE52FieldSignaturesAtScale(t *testing.T) {
	forSeeds(t, "E52", func(t *testing.T, rows [][]string) {
		total, prev := 0.0, -1.0
		for _, r := range rows {
			total += cellFloat(t, r[1])
			rate := cellFloat(t, r[2])
			if rate <= prev {
				t.Fatal("CE rate not growing with density")
			}
			prev = rate
			if share := cellFloat(t, r[4]); share < 30 {
				t.Fatalf("top-1%% share %v%%; errors not concentrated", share)
			}
		}
		if total < 1e6 {
			t.Fatalf("fleet has %v DIMMs, want ~1M", total)
		}
	})
}
