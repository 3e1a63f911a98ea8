package exp

import (
	"strings"
	"testing"
)

func TestE40Frontier(t *testing.T) {
	forSeeds(t, "E40", func(t *testing.T, rows [][]string) {
		if len(rows) != 8 {
			t.Fatalf("E40 has %d solutions, want 8", len(rows))
		}
		base := cellFloat(t, rows[0][1])
		if base <= 0 {
			t.Fatal("E40 unmitigated baseline drew no blood; frontier is vacuous")
		}
		for _, r := range rows[3:] { // every tracker-based defence
			if cellFloat(t, r[1]) >= base {
				t.Fatalf("E40: %s does not beat the baseline (%v flips)", r[0], r[1])
			}
		}
	})
}

func TestE41SidednessLeaksTRR(t *testing.T) {
	forSeeds(t, "E41", func(t *testing.T, rows [][]string) {
		flipsAt := func(def string, sides, decoys float64) float64 {
			for _, r := range rows {
				if r[0] == def && cellFloat(t, r[1]) == sides && cellFloat(t, r[2]) == decoys {
					return cellFloat(t, r[3])
				}
			}
			t.Fatalf("E41 missing row %s/%v/%v", def, sides, decoys)
			return 0
		}
		if flipsAt("TRR 2-entry", 16, 0) <= flipsAt("TRR 2-entry", 2, 0) {
			t.Fatal("E41: widening the pattern did not leak more through TRR")
		}
		for _, sides := range []float64{2, 4, 8, 16} {
			if flipsAt("Graphene 20-entry", sides, 4) != 0 {
				t.Fatalf("E41: provisioned Graphene leaked at %v sides", sides)
			}
			if flipsAt("TWiCe", sides, 4) != 0 {
				t.Fatalf("E41: TWiCe leaked at %v sides", sides)
			}
		}
	})
}

func TestE43ScalingEliminates(t *testing.T) {
	forSeeds(t, "E43", func(t *testing.T, rows [][]string) {
		if cellFloat(t, rows[0][1]) == 0 {
			t.Fatal("E43: nominal refresh rate should lose")
		}
		last := rows[len(rows)-1]
		if cellFloat(t, last[1]) != 0 {
			t.Fatal("E43: highest factor should eliminate all flips")
		}
		prevREF := -1.0
		for _, r := range rows {
			ref := cellFloat(t, r[2])
			if ref <= prevREF {
				t.Fatal("E43: REF commands must grow with the factor")
			}
			prevREF = ref
		}
	})
}

func TestE44AdaptiveAttacker(t *testing.T) {
	forSeeds(t, "E44", func(t *testing.T, rows [][]string) {
		byDef := map[string][]string{}
		for _, r := range rows {
			byDef[r[0]] = r
		}
		weak := byDef["TRR 2-entry"]
		if weak == nil || cellFloat(t, weak[1]) <= 2 || cellFloat(t, weak[4]) == 0 {
			t.Fatalf("E44: adaptive attacker failed to widen against the weak sampler: %v", weak)
		}
		for _, def := range []string{"Graphene 20-entry", "TWiCe"} {
			r := byDef[def]
			if r == nil || cellFloat(t, r[4]) != 0 {
				t.Fatalf("E44: %s leaked under the adaptive attacker: %v", def, r)
			}
		}
		if !strings.Contains(byDef["Graphene 2-entry (undersized)"][0], "undersized") {
			t.Fatal("E44 missing the undersized Graphene row")
		}
	})
}
