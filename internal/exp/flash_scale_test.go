package exp

import (
	"testing"
)

func TestE60FrontierOrdering(t *testing.T) {
	forSeeds(t, "E60", func(t *testing.T, rows [][]string) {
		// Index mean endurance by (T, period, stress).
		type key struct{ tcorr, period, stress string }
		end := map[key]float64{}
		for _, r := range rows {
			end[key{r[0], r[1], r[2]}] = cellFloat(t, r[3])
		}
		for k, e := range end {
			if e <= 0 {
				t.Fatalf("%v: zero endurance; frontier point is vacuous", k)
			}
			// Stronger ECC at the same period/stress never hurts.
			if k.tcorr == "40" {
				weak := end[key{"20", k.period, k.stress}]
				if e < weak {
					t.Fatalf("T=40 endurance %v below T=20's %v at %v/%v", e, weak, k.period, k.stress)
				}
			}
		}
		// Shorter FCR periods extend endurance at fixed ECC and stress.
		for _, tcorr := range []string{"20", "40"} {
			if end[key{tcorr, "7 d", "0"}] <= end[key{tcorr, "365 d", "0"}] {
				t.Fatalf("T=%s: weekly refresh does not beat yearly", tcorr)
			}
		}
	})
}

func TestE62FleetOrdering(t *testing.T) {
	forSeeds(t, "E62", func(t *testing.T, rows [][]string) {
		byScheme := map[string]float64{}
		for _, r := range rows {
			byScheme[r[0]] = cellFloat(t, r[1])
			if min, max := cellFloat(t, r[2]), cellFloat(t, r[3]); min > max {
				t.Fatalf("%s: fleet min %v above max %v", r[0], min, max)
			}
		}
		if byScheme["start-gap"] < 10*byScheme["none"] {
			t.Fatalf("start-gap mean %v not well above no-leveling %v", byScheme["start-gap"], byScheme["none"])
		}
		if byScheme["start-gap+random"] < byScheme["none"] {
			t.Fatal("randomized leveling below no-leveling")
		}
	})
}

func TestE63WearClassesOrdered(t *testing.T) {
	forSeeds(t, "E63", func(t *testing.T, rows [][]string) {
		if len(rows) != 3 {
			t.Fatalf("E63 has %d wear classes, want 3", len(rows))
		}
		prev := -1.0
		for _, r := range rows {
			rber := cellFloat(t, r[1])
			if rber <= prev {
				t.Fatalf("mean RBER not growing with wear: %v after %v", rber, prev)
			}
			prev = rber
		}
	})
}
