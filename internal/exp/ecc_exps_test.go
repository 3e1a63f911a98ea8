package exp

import (
	"testing"
)

// eccRow finds the E70 row for one (ecc, defence) pair.
func eccRow(t *testing.T, rows [][]string, ecc, def string) []string {
	t.Helper()
	for _, r := range rows {
		if r[0] == ecc && r[1] == def {
			return r
		}
	}
	t.Fatalf("E70 missing row %s/%s", ecc, def)
	return nil
}

func TestE70ECCBreakdown(t *testing.T) {
	forSeeds(t, "E70", func(t *testing.T, rows [][]string) {
		if len(rows) != 16 {
			t.Fatalf("E70 has %d rows, want 16 (4 ecc x 4 defences)", len(rows))
		}
		// Physics is ECC-independent: identical flips down the undefended
		// column, and the defences stop the flips for every configuration.
		baseFlips := cellFloat(t, eccRow(t, rows, "none", "none")[2])
		if baseFlips != 30 {
			t.Fatalf("E70 undefended flips = %v, want 30 (3 victims x 10 weak cells)", baseFlips)
		}
		for _, ecc := range []string{"none", "secded", "indram", "chipkill"} {
			if got := cellFloat(t, eccRow(t, rows, ecc, "none")[2]); got != baseFlips {
				t.Fatalf("E70: flips under %s = %v, want %v — ECC changed the physics", ecc, got, baseFlips)
			}
			for _, def := range []string{"refresh-x2", "PARA p=0.01", "Graphene 8-entry"} {
				r := eccRow(t, rows, ecc, def)
				if cellFloat(t, r[2]) != 0 {
					t.Fatalf("E70: %s under %s still flips (%s)", ecc, def, r[2])
				}
				for c := 3; c <= 5; c++ {
					if cellFloat(t, r[c]) != 0 {
						t.Fatalf("E70: %s under %s has nonzero ECC counter %s", ecc, def, r[c])
					}
				}
			}
		}
		// The undefended triage: 12 corrupted words (3 victims x 4 word
		// clusters), split per code capability.
		check := func(ecc string, corrected, detected, silent float64) {
			r := eccRow(t, rows, ecc, "none")
			if got := cellFloat(t, r[3]); got != corrected {
				t.Errorf("E70 %s corrected = %v, want %v", ecc, got, corrected)
			}
			if got := cellFloat(t, r[4]); got != detected {
				t.Errorf("E70 %s detected = %v, want %v", ecc, got, detected)
			}
			if got := cellFloat(t, r[5]); got != silent {
				t.Errorf("E70 %s silent = %v, want %v", ecc, got, silent)
			}
		}
		// ECC-off reports nothing (raw flips only).
		check("none", 0, 0, 0)
		// SECDED: singles corrected; the spread double AND the even-weight
		// quad are detected (even flip counts leave overall parity clean,
		// and this quad's syndrome is nonzero); the nibble-packed triple is
		// the guaranteed miscorrection.
		check("secded", 3, 6, 3)
		// The on-die code models correct-1/detect-2/silent-past-2.
		check("indram", 3, 3, 6)
		// Chipkill corrects the single AND the nibble-packed triple,
		// detects the 2-nibble double, and goes silent on the 4-nibble quad.
		check("chipkill", 6, 3, 3)
	})
}

func TestE71ScrubRateCurve(t *testing.T) {
	forSeeds(t, "E71", func(t *testing.T, rows [][]string) {
		if len(rows) != 5 {
			t.Fatalf("E71 has %d rows, want 5 scrub rates", len(rows))
		}
		find := func(rate string) []string {
			for _, r := range rows {
				if r[0] == rate {
					return r
				}
			}
			t.Fatalf("E71 missing rate %s", rate)
			return nil
		}
		off := find("0")
		if cellFloat(t, off[1]) != 0 {
			t.Fatal("E71: scrub-off row reports repairs")
		}
		if cellFloat(t, off[3]) != 9 || cellFloat(t, off[4]) != 9 {
			t.Fatalf("E71: unscrubbed readback = %v detected / %v silent, want 9/9",
				cellFloat(t, off[3]), cellFloat(t, off[4]))
		}
		fast := find("128")
		if cellFloat(t, fast[4]) != 0 {
			t.Fatalf("E71: fast patrol still leaves %v silent words", cellFloat(t, fast[4]))
		}
		if cellFloat(t, fast[1]) < 9 {
			t.Fatalf("E71: fast patrol repaired only %v words", cellFloat(t, fast[1]))
		}
		// The bandwidth price climbs with the rate.
		if cellFloat(t, fast[5]) <= cellFloat(t, find("2")[5]) {
			t.Fatal("E71: scrub time share did not grow with the patrol rate")
		}
		// Silent words are monotone nonincreasing in the scrub rate.
		prev := cellFloat(t, off[4])
		for _, rate := range []string{"2", "8", "32", "128"} {
			cur := cellFloat(t, find(rate)[4])
			if cur > prev {
				t.Fatalf("E71: silent words grew from %v to %v at rate %s", prev, cur, rate)
			}
			prev = cur
		}
	})
}

func TestE72HuntMappingInvariant(t *testing.T) {
	forSeeds(t, "E72", func(t *testing.T, rows [][]string) {
		if len(rows) != 3 {
			t.Fatalf("E72 has %d rows, want 3 policies", len(rows))
		}
		// The multi-flip population is physical: identical counts under
		// every mapping policy.
		for c := 1; c <= 5; c++ {
			for _, r := range rows[1:] {
				if r[c] != rows[0][c] {
					t.Fatalf("E72: column %d differs across policies (%s vs %s)", c, rows[0][c], r[c])
				}
			}
		}
		if got := cellFloat(t, rows[0][1]); got != 4 {
			t.Fatalf("E72 found %v multi-flip words, want 4 injected clusters", got)
		}
		if cellFloat(t, rows[0][3]) < 1 {
			t.Fatal("E72: no SECDED-silent word — the nibble-packed triple went missing")
		}
		if got := cellFloat(t, rows[0][5]); got != 1 {
			t.Fatalf("E72: chipkill-silent words = %v, want 1 (the 4-nibble quad)", got)
		}
		// What moves with the policy is the flat address the attacker
		// sprays, not the silicon.
		addrs := map[string]string{}
		for _, r := range rows {
			addrs[r[0]] = r[6]
		}
		if addrs["row"] == addrs["channel"] {
			t.Fatal("E72: row and channel policies report the same first-silent address")
		}
	})
}

func TestE73FleetClassification(t *testing.T) {
	forSeeds(t, "E73", func(t *testing.T, rows [][]string) {
		if len(rows) != 9 {
			t.Fatalf("E73 has %d rows, want 9 (3 classes x 3 codes)", len(rows))
		}
		silentOf := map[string]float64{}
		for _, r := range rows {
			events := cellFloat(t, r[2])
			if events <= 0 {
				t.Fatalf("E73: class %s saw no events", r[0])
			}
			sum := cellFloat(t, r[3]) + cellFloat(t, r[4]) + cellFloat(t, r[5])
			if sum != events {
				t.Fatalf("E73 %s/%s: corrected+detected+silent = %v, want %v events", r[0], r[1], sum, events)
			}
			silentOf[r[0]+"/"+r[1]] += cellFloat(t, r[5])
		}
		for _, cls := range []string{"1Gb", "2Gb", "4Gb"} {
			// Chipkill silence needs >2 struck symbols, which implies >2
			// struck bits: its silent set is a subset of the on-die code's.
			if silentOf[cls+"/chipkill"] > silentOf[cls+"/indram"] {
				t.Fatalf("E73 %s: chipkill silent (%v) exceeds on-die silent (%v)",
					cls, silentOf[cls+"/chipkill"], silentOf[cls+"/indram"])
			}
			if silentOf[cls+"/secded"] == 0 {
				t.Fatalf("E73 %s: SECDED shows no silent events at fleet scale", cls)
			}
		}
	})
}
