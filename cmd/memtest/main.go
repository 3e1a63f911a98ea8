// Command memtest is a MemTest86-style pass-based memory tester for
// the simulated DRAM: classic pattern passes (solid, checkerboard,
// moving inversions) plus the RowHammer test mode that real memory
// testers added after the ISCA 2014 disclosure.
//
// Usage:
//
//	memtest [-year 2013] [-passes solid,checker,inversions,rowhammer]
//	        [-seed N] [-ecc none|secded|indram|chipkill] [-scrub N]
//
// -ecc runs the test behind an ECC layer, the way a deployed tester
// sees a protected DIMM: corrected words read back clean (the pass
// reports no error), and the summary splits what ECC saw into
// corrected / detected / silent words. -scrub N adds a patrol
// scrubber at N words per REF.
//
// Exit status distinguishes outcomes: 0 when every pass is clean, 2
// when the module shows bit errors (faulty or RowHammer-vulnerable),
// and 1 for invocation errors, which cost a one-line stderr message.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/modules"
)

// writeAll writes pattern to every word of the system in flat address
// order, through the memory controllers.
func writeAll(s *core.System, pattern uint64) {
	for addr := uint64(0); addr < s.Topo.Bytes(); addr += 8 {
		s.Mem.Access(addr, true, pattern)
	}
}

// verifyAll reads every word back and counts the bits that differ from
// pattern.
func verifyAll(s *core.System, pattern uint64) int {
	errs := 0
	for addr := uint64(0); addr < s.Topo.Bytes(); addr += 8 {
		got, _ := s.Mem.Access(addr, false, 0)
		for d := got ^ pattern; d != 0; d &= d - 1 {
			errs++
		}
	}
	return errs
}

func main() {
	total, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "memtest:", err)
		os.Exit(1)
	}
	if total > 0 {
		os.Exit(2)
	}
}

func run() (total int, err error) {
	// Simulator internals validate contracts by panicking; the net
	// turns anything that slips past flag validation into the same
	// one-line failure instead of a stack trace.
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("internal panic: %v", p)
		}
	}()
	year := flag.Int("year", 2013, "module class year")
	passes := flag.String("passes", "solid,checker,inversions,rowhammer", "comma-separated passes")
	seed := flag.Uint64("seed", 1, "simulation seed")
	eccName := flag.String("ecc", "none", "ECC configuration: none, secded, indram, chipkill")
	scrub := flag.Int("scrub", 0, "patrol scrub words per REF (requires -ecc)")
	flag.Parse()
	eccCfg, err := memctrl.ECCByName(*eccName)
	if err != nil {
		return 0, fmt.Errorf("-ecc %q: %w", *eccName, err)
	}
	if *scrub < 0 {
		return 0, fmt.Errorf("-scrub %d must be non-negative", *scrub)
	}
	if *scrub > 0 && eccCfg.Kind == memctrl.ECCNone {
		return 0, fmt.Errorf("-scrub %d needs an ECC layer to repair against; pass -ecc", *scrub)
	}

	passList := strings.Split(*passes, ",")
	for i, pass := range passList {
		passList[i] = strings.TrimSpace(pass)
		switch passList[i] {
		case "solid", "checker", "inversions", "rowhammer":
		default:
			return 0, fmt.Errorf("unknown pass %q (want solid, checker, inversions or rowhammer)", pass)
		}
	}

	pop := modules.Population(*seed)
	var mod *modules.Module
	for i := range pop {
		if pop[i].Year == *year {
			mod = &pop[i]
			break
		}
	}
	if mod == nil {
		return 0, fmt.Errorf("no module of year %d", *year)
	}
	m := *mod
	if m.Vulnerable() {
		m.Vuln.MinThreshold /= 50
		m.Vuln.ThresholdMedian /= 50
	}
	g := dram.Geometry{Banks: 1, Rows: 512, Cols: 8}
	s := core.Build(&m, core.Options{Topology: dram.SingleChannel(g), ECC: eccCfg})
	ctrl := s.Mem.Controller(0)
	if *scrub > 0 {
		ctrl.Attach(memctrl.NewScrubber(*scrub))
	}
	fmt.Printf("memtest: module %s, %d rows x %d bits, ecc=%s\n", m.ID, g.Rows, g.BitsPerRow(), eccCfg.Kind)

	for _, pass := range passList {
		var errs int
		switch pass {
		case "solid":
			writeAll(s, ^uint64(0))
			errs = verifyAll(s, ^uint64(0))
			writeAll(s, 0)
			errs += verifyAll(s, 0)
		case "checker":
			writeAll(s, 0xaaaaaaaaaaaaaaaa)
			errs = verifyAll(s, 0xaaaaaaaaaaaaaaaa)
			writeAll(s, 0x5555555555555555)
			errs += verifyAll(s, 0x5555555555555555)
		case "inversions":
			for _, p := range []uint64{0x0f0f0f0f0f0f0f0f, 0xf0f0f0f0f0f0f0f0} {
				writeAll(s, p)
				errs += verifyAll(s, p)
			}
		case "rowhammer":
			// The post-2014 addition: hammer every third row and
			// check the whole array for disturbance flips.
			before := s.TotalFlips()
			writeAll(s, ^uint64(0))
			for v := 2; v < g.Rows-1; v += 3 {
				ctrl.HammerPairsRanked(0, 0, v-1, v+1, 20000)
			}
			errs = int(s.TotalFlips() - before)
		}
		status := "PASS"
		if errs > 0 {
			status = "FAIL"
		}
		fmt.Printf("  %-12s %s (%d bit errors)\n", pass, status, errs)
		total += errs
	}
	if eccCfg.Kind != memctrl.ECCNone {
		st := ctrl.Stats
		fmt.Printf("memtest: ecc words corrected=%d detected=%d silent=%d\n",
			st.ECCCorrected, st.ECCDetected, st.ECCSilent)
		// Silent miscorrections defeat the tester: the verify passes read
		// plausible-but-wrong data and count it as bit errors anyway only
		// if the decoder's output misses the pattern, so surface them in
		// the exit status explicitly.
		total += int(st.ECCSilent)
	}
	if total > 0 {
		fmt.Printf("memtest: %d total errors — module is faulty or RowHammer-vulnerable\n", total)
	} else {
		fmt.Println("memtest: all passes clean")
	}
	return total, nil
}
