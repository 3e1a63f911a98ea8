package exp

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
		"E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20",
		"E21", "E22", "E23", "E24", "E25", "E26", "E27", "E28", "E29",
		"E30", "E31", "E32", "E40", "E41", "E42", "E43", "E44",
		"E50", "E51", "E52", "E60", "E62", "E63",
		"E70", "E71", "E72", "E73",
		"E81", "E82", "E83", "E84"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("experiment %d is %s, want %s", i, all[i].ID, id)
		}
		if all[i].Title == "" || all[i].Anchor == "" {
			t.Fatalf("%s missing title/anchor", id)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E1"); !ok {
		t.Fatal("E1 not found")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("phantom experiment found")
	}
}

// claimSeeds are the seeds every property test checks its claim at:
// the seeds of the golden tables, which TestTablesMatchGolden has
// already memoised, so the second seed costs nothing in a full run.
// -short checks seed 1 only.
func claimSeeds() []uint64 {
	if testing.Short() {
		return []uint64{1}
	}
	return []uint64{1, 5}
}

// forSeeds checks a claim on experiment id's table at every claim seed,
// each in a subtest named for its seed.
func forSeeds(t *testing.T, id string, check func(t *testing.T, rows [][]string)) {
	t.Helper()
	for _, seed := range claimSeeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			check(t, runTable(t, id, seed))
		})
	}
}

// runTable reads an experiment's table at the given seed and the
// default fan-out (the run TestTablesMatchGolden pins) and applies
// generic sanity checks.
func runTable(t *testing.T, id string, seed uint64) [][]string {
	t.Helper()
	tab := table(t, id, seed, 0)
	if len(tab.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	if !strings.Contains(tab.String(), tab.Columns[0]) {
		t.Fatalf("%s table does not render", id)
	}
	return tab.Rows
}

func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	clean := strings.TrimSuffix(strings.TrimSpace(cell), "%")
	clean = strings.TrimSuffix(clean, "x")
	v, err := strconv.ParseFloat(clean, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", cell, err)
	}
	return v
}

func TestE1Shape(t *testing.T) {
	forSeeds(t, "E1", func(t *testing.T, rows [][]string) {
		if len(rows) != 129 {
			t.Fatalf("E1 has %d module rows, want 129", len(rows))
		}
		// Pre-2010 modules must report zero errors.
		for _, r := range rows {
			year := cellFloat(t, r[0])
			errs := cellFloat(t, r[3])
			if year <= 2009 && errs != 0 {
				t.Fatalf("year %v module has %v errors", year, errs)
			}
		}
	})
}

func TestE2Census(t *testing.T) {
	forSeeds(t, "E2", func(t *testing.T, rows [][]string) {
		total, vuln := 0.0, 0.0
		for _, r := range rows {
			total += cellFloat(t, r[1])
			vuln += cellFloat(t, r[2])
		}
		if total != 129 || vuln != 110 {
			t.Fatalf("census %v/%v, want 110/129", vuln, total)
		}
	})
}

func TestE3Monotone(t *testing.T) {
	forSeeds(t, "E3", func(t *testing.T, rows [][]string) {
		prev := -1.0
		for _, r := range rows {
			v := cellFloat(t, r[2]) // 2013 class
			if v < prev {
				t.Fatalf("E3 2013 series not monotone")
			}
			prev = v
		}
		if cellFloat(t, rows[0][2]) != 0 {
			t.Fatal("E3 should show zero errors at 25k pairs")
		}
		if prev <= 0 {
			t.Fatal("E3 should show errors at max hammer count")
		}
	})
}

func TestE4Eliminates(t *testing.T) {
	forSeeds(t, "E4", func(t *testing.T, rows [][]string) {
		last := rows[len(rows)-1]
		if cellFloat(t, last[1]) != 129 {
			t.Fatalf("10x refresh leaves unclean modules: %v", last[1])
		}
		first := rows[0]
		if cellFloat(t, first[1]) >= 129 {
			t.Fatal("1x refresh should not be clean")
		}
	})
}

func TestE5PARAWins(t *testing.T) {
	forSeeds(t, "E5", func(t *testing.T, rows [][]string) {
		byName := map[string][]string{}
		for _, r := range rows {
			byName[r[0]] = r
		}
		if cellFloat(t, byName["none (baseline)"][1]) == 0 {
			t.Fatal("baseline attack produced no flips")
		}
		if cellFloat(t, byName["PARA p=0.01 (in-DRAM)"][1]) != 0 {
			t.Fatal("PARA p=0.01 leaked flips")
		}
		if cellFloat(t, byName["CRA counters"][1]) != 0 {
			t.Fatal("CRA leaked flips")
		}
		if cellFloat(t, byName["refresh x7"][1]) > cellFloat(t, byName["none (baseline)"][1]) {
			t.Fatal("7x refresh worse than baseline")
		}
	})
}

func TestE6Astronomical(t *testing.T) {
	forSeeds(t, "E6", func(t *testing.T, rows [][]string) {
		// MTTF at p=0.001 must exceed hard disk MTTF by far.
		for _, r := range rows {
			if r[0] == "0.001" {
				if cellFloat(t, r[2]) < 1e10 {
					t.Fatalf("PARA p=0.001 MTTF %v years too low", r[2])
				}
				return
			}
		}
		t.Fatal("p=0.001 row missing")
	})
}

func TestE7MultiBitWordsExist(t *testing.T) {
	forSeeds(t, "E7", func(t *testing.T, rows [][]string) {
		multi := 0.0
		for _, r := range rows {
			if r[0] == "2" || r[0] == "3" || r[0] == "4" || r[0] == ">4" {
				multi += cellFloat(t, r[1])
			}
		}
		if multi == 0 {
			t.Fatal("no multi-bit words; the SECDED argument needs them")
		}
	})
}

func TestE10Monotone(t *testing.T) {
	forSeeds(t, "E10", func(t *testing.T, rows [][]string) {
		prev := -1.0
		for _, r := range rows {
			v := cellFloat(t, r[2])
			if v < prev {
				t.Fatal("refresh loss not monotone in density")
			}
			prev = v
		}
	})
}

func TestE11EscapesShrink(t *testing.T) {
	forSeeds(t, "E11", func(t *testing.T, rows [][]string) {
		solid := cellFloat(t, rows[0][3])
		best := cellFloat(t, rows[len(rows)-1][3])
		if best > solid {
			t.Fatalf("escapes grew with better profiling: %v -> %v", solid, best)
		}
		if solid == 0 {
			t.Fatal("solid profiling should leak escapes")
		}
	})
}

func TestE12ScrubbingHelps(t *testing.T) {
	forSeeds(t, "E12", func(t *testing.T, rows [][]string) {
		byName := map[string]float64{}
		for _, r := range rows {
			byName[r[0]] = cellFloat(t, r[1])
		}
		if byName["SECDED + scrub/1"] > byName["SECDED, no scrub"] {
			t.Fatal("scrubbing increased failures")
		}
		if byName["no ECC"] < byName["SECDED, no scrub"] {
			t.Fatal("ECC increased failures")
		}
	})
}

func TestE13RetentionDominates(t *testing.T) {
	forSeeds(t, "E13", func(t *testing.T, rows [][]string) {
		last := rows[len(rows)-1] // highest P/E
		fresh := cellFloat(t, last[1])
		ret := cellFloat(t, last[2])
		reads := cellFloat(t, last[3])
		if ret <= fresh {
			t.Fatal("retention adds nothing at high P/E")
		}
		if ret <= reads {
			t.Fatalf("retention (%v) should dominate 50k reads (%v) at high P/E", ret, reads)
		}
	})
}

func TestE14FCRWins(t *testing.T) {
	forSeeds(t, "E14", func(t *testing.T, rows [][]string) {
		base := cellFloat(t, rows[0][2])
		bestFixed := 0.0
		for _, r := range rows[1:] {
			if v := cellFloat(t, r[2]); v > bestFixed {
				bestFixed = v
			}
		}
		if bestFixed <= base {
			t.Fatalf("no FCR variant beats baseline: base=%v best=%v", base, bestFixed)
		}
	})
}

func TestE15Grows(t *testing.T) {
	forSeeds(t, "E15", func(t *testing.T, rows [][]string) {
		first := cellFloat(t, rows[0][1])
		last := cellFloat(t, rows[len(rows)-1][1])
		if last <= first {
			t.Fatal("read disturb RBER did not grow")
		}
	})
}

func TestE16Reduces(t *testing.T) {
	forSeeds(t, "E16", func(t *testing.T, rows [][]string) {
		for _, r := range rows {
			before := cellFloat(t, r[2])
			after := cellFloat(t, r[3])
			if before > 0 && after >= before {
				t.Fatalf("RFR failed at corner %v/%v: %v -> %v", r[0], r[1], before, after)
			}
		}
	})
}

func TestE17Reduces(t *testing.T) {
	forSeeds(t, "E17", func(t *testing.T, rows [][]string) {
		helped := false
		for _, r := range rows {
			if cellFloat(t, r[1]) > 0 && cellFloat(t, r[2]) < cellFloat(t, r[1]) {
				helped = true
			}
		}
		if !helped {
			t.Fatal("NAC never reduced errors")
		}
	})
}

func TestE18MitigationWorks(t *testing.T) {
	forSeeds(t, "E18", func(t *testing.T, rows [][]string) {
		last := rows[len(rows)-1] // heaviest attack
		unmit := cellFloat(t, last[1])
		mit := cellFloat(t, last[2])
		if unmit < 10 {
			t.Fatalf("heaviest attack corrupted only %v bits", unmit)
		}
		if mit > unmit/10 {
			t.Fatalf("buffered LSB left %v of %v corrupted bits", mit, unmit)
		}
	})
}

func TestE19PlacementMatters(t *testing.T) {
	forSeeds(t, "E19", func(t *testing.T, rows [][]string) {
		byName := map[string]float64{}
		for _, r := range rows {
			byName[r[0]] = cellFloat(t, r[1])
		}
		if byName["no mitigation"] == 0 {
			t.Fatal("baseline produced no flips")
		}
		if byName["in-DRAM / 3D logic layer"] != 0 {
			t.Fatal("in-DRAM PARA leaked")
		}
		if byName["controller + SPD adjacency"] != 0 {
			t.Fatal("SPD PARA leaked")
		}
		if byName["controller, no SPD"] == 0 {
			t.Fatal("no-SPD PARA should leak under 20% remapping")
		}
	})
}

func TestE20StartGapWins(t *testing.T) {
	forSeeds(t, "E20", func(t *testing.T, rows [][]string) {
		direct := cellFloat(t, rows[0][1])
		sg := cellFloat(t, rows[1][1])
		if sg < 10*direct {
			t.Fatalf("start-gap %v not >> direct %v", sg, direct)
		}
	})
}

func TestE21AttackOutcomes(t *testing.T) {
	forSeeds(t, "E21", func(t *testing.T, rows [][]string) {
		byName := map[string][]string{}
		for _, r := range rows {
			byName[r[0]] = r
		}
		if byName["2009-class (invulnerable)"][3] != "0/5" {
			t.Fatal("invulnerable module escalated")
		}
		if byName["2013-class + PARA p=0.02"][3] != "0/5" {
			t.Fatal("PARA-protected system escalated")
		}
		if byName["2013-class"][3] == "0/5" {
			t.Fatal("vulnerable 2013 module never escalated")
		}
	})
}

func TestE22BypassShape(t *testing.T) {
	forSeeds(t, "E22", func(t *testing.T, rows [][]string) {
		// With 16 sampler entries and 1 aggressor pair: no flips. With 1
		// entry and 19 pairs: flips.
		var strongSmall, weakLarge float64 = -1, -1
		for _, r := range rows {
			if r[0] == "16" && r[1] == "1" {
				strongSmall = cellFloat(t, r[2])
			}
			if r[0] == "1" && r[1] == "19" {
				weakLarge = cellFloat(t, r[2])
			}
		}
		if strongSmall != 0 {
			t.Fatalf("16-entry TRR leaked against single pair: %v", strongSmall)
		}
		if weakLarge == 0 {
			t.Fatal("1-entry TRR held against 19 pairs")
		}
	})
}

func TestE23TradeOff(t *testing.T) {
	forSeeds(t, "E23", func(t *testing.T, rows [][]string) {
		solidEsc := cellFloat(t, rows[0][3])
		fullEsc := cellFloat(t, rows[1][3])
		if fullEsc > solidEsc {
			t.Fatalf("better profiling increased escapes: %v -> %v", solidEsc, fullEsc)
		}
	})
}

func TestE8E9Run(t *testing.T) {
	for _, id := range []string{"E8", "E9"} {
		forSeeds(t, id, func(*testing.T, [][]string) {})
	}
}

func TestE24FieldStudyShape(t *testing.T) {
	forSeeds(t, "E24", func(t *testing.T, rows [][]string) {
		prev := -1.0
		for _, r := range rows {
			rate := cellFloat(t, r[2])
			if rate <= prev {
				t.Fatal("CE rate not growing with density")
			}
			prev = rate
			if share := cellFloat(t, r[4]); share < 30 {
				t.Fatalf("top-1%% share %v%%; errors not concentrated", share)
			}
		}
	})
}

func TestE25Tradeoff(t *testing.T) {
	forSeeds(t, "E25", func(t *testing.T, rows [][]string) {
		if cellFloat(t, rows[0][2]) != 0 {
			t.Fatal("nominal refresh failed to protect the threshold-margin victim")
		}
		for _, r := range rows[1:] {
			if cellFloat(t, r[2]) == 0 {
				t.Fatalf("slow bin %v did not expose the victim", r[0])
			}
			if cellFloat(t, r[1]) <= 0 {
				t.Fatal("slow bin saved no refresh")
			}
		}
	})
}

func TestE26RadiusAblation(t *testing.T) {
	forSeeds(t, "E26", func(t *testing.T, rows [][]string) {
		byRadius := map[string][]string{}
		for _, r := range rows {
			byRadius[r[0]] = r
		}
		if cellFloat(t, byRadius["1"][1]) != 0 || cellFloat(t, byRadius["2"][1]) != 0 {
			t.Fatal("distance-1 victim must be protected at both radii")
		}
		if cellFloat(t, byRadius["1"][2]) != 1 {
			t.Fatal("radius 1 must leak the distance-2 victim")
		}
		if cellFloat(t, byRadius["2"][2]) != 0 {
			t.Fatal("radius 2 must protect the distance-2 victim")
		}
	})
}

func TestE27DPDGap(t *testing.T) {
	forSeeds(t, "E27", func(t *testing.T, rows [][]string) {
		for _, r := range rows {
			opp := cellFloat(t, r[1])
			same := cellFloat(t, r[2])
			dpd := cellFloat(t, r[0])
			if dpd < 1 && same > opp {
				t.Fatalf("DPD %v: same-pattern flips exceed opposite", dpd)
			}
			if dpd >= 1 && same != opp {
				t.Fatal("DPD disabled but patterns differ")
			}
		}
	})
}

func TestE28Gradient(t *testing.T) {
	forSeeds(t, "E28", func(t *testing.T, rows [][]string) {
		first := cellFloat(t, rows[0][1])
		last := cellFloat(t, rows[len(rows)-1][1])
		if first == 0 {
			t.Fatal("no TRR baseline should flip all victims")
		}
		if last != 0 {
			t.Fatal("high capture rate should protect everything")
		}
	})
}

func TestE29SweepDominates(t *testing.T) {
	forSeeds(t, "E29", func(t *testing.T, rows [][]string) {
		byName := map[string][]string{}
		for _, r := range rows {
			byName[r[0]] = r
		}
		full := cellFloat(t, byName["full RFR"][2])
		sweep := cellFloat(t, byName["sweep only"][2])
		class := cellFloat(t, byName["classification only"][2])
		before := cellFloat(t, byName["full RFR"][1])
		if full > sweep {
			t.Fatal("full RFR worse than sweep-only")
		}
		if sweep >= before {
			t.Fatal("sweep contributed nothing")
		}
		if class < sweep {
			t.Fatal("classification-only should not beat the sweep in this regime")
		}
	})
}
