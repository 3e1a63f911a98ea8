package softmc

import (
	"testing"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/retention"
	"repro/internal/rng"
)

func device() *dram.Device {
	return dram.NewDevice(dram.Geometry{Banks: 2, Rows: 128, Cols: 8})
}

func TestWriteReadProgram(t *testing.T) {
	dev := device()
	e := NewEngine(dev, 0)
	p := (&Program{}).ACT(0, 5).WR(0, 3, 0xbeef).RD(0, 3).PRE(0)
	res := e.Run(p)
	if len(res.Reads) != 1 || res.Reads[0] != 0xbeef {
		t.Fatalf("reads = %v", res.Reads)
	}
	if res.Cycles != 4 {
		t.Fatalf("cycles = %d", res.Cycles)
	}
	if res.EndTime == 0 {
		t.Fatal("no time elapsed")
	}
}

func TestLoopExecutesBodyRepeatedly(t *testing.T) {
	dev := device()
	e := NewEngine(dev, 0)
	p := (&Program{}).ACT(0, 1).RD(0, 0).PRE(0)
	p.Loop(3, 9) // body of 3 instructions, 9 extra iterations
	res := e.Run(p)
	if len(res.Reads) != 10 {
		t.Fatalf("loop produced %d reads, want 10", len(res.Reads))
	}
	// 3 body instructions x 10 + the LOOP instruction visited 10 times.
	if res.Cycles != 40 {
		t.Fatalf("cycles = %d, want 40", res.Cycles)
	}
}

func TestLoopPanicsOnBadBody(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Program{}).ACT(0, 0).Loop(5, 1)
}

func TestTimingEnforcedBetweenActivates(t *testing.T) {
	dev := device()
	e := NewEngine(dev, 0)
	// Two ACT/PRE pairs to the same bank must be separated by >= tRC.
	p := (&Program{}).ACT(0, 1).PRE(0).ACT(0, 2).PRE(0)
	res := e.Run(p)
	if res.EndTime < dev.Timing.TRC {
		t.Fatalf("two row cycles completed in %d ns < tRC", res.EndTime)
	}
}

func TestHammerProgramFlipsVictim(t *testing.T) {
	dev := device()
	m := disturb.NewPlanted(dev.Geom)
	m.InjectWeakCell(0, 50, 7, 1000, 1, 1, 1, 1)
	dev.AttachFault(m)
	dev.SetPhysBit(0, 50, 7, 1)
	e := NewEngine(dev, 0)
	e.Run(HammerProgram(0, 49, 51, 2000))
	if dev.PhysBit(0, 50, 7) != 0 {
		t.Fatal("SoftMC hammer program did not flip the victim")
	}
}

func TestHammerProgramRate(t *testing.T) {
	// The command-level hammer must reach the tRC-limited rate: one
	// pair per 2*tRC (plus tRAS/tRP enforcement inside).
	dev := device()
	e := NewEngine(dev, 0)
	res := e.Run(HammerProgram(0, 10, 12, 10000))
	nsPerPair := float64(res.EndTime) / 10000
	if nsPerPair > 2.2*float64(dev.Timing.TRC) {
		t.Fatalf("hammer rate too slow: %.1f ns/pair", nsPerPair)
	}
}

func TestRetentionProgramFindsDecay(t *testing.T) {
	dev := device()
	p := retention.Params{
		WeakFraction: 0, // inject manually below via dense params
		MedianSec:    1, Sigma: 0.1, MinSec: 0.07,
		VRTRatio: 1, VRTDwellSec: 1, TemperatureC: 45,
	}
	p.WeakFraction = 0.05
	m := retention.NewModel(dev.Geom, p, rng.New(2))
	dev.AttachFault(m)
	e := NewEngine(dev, 0)
	// 30-second wait: nearly every weak cell decays.
	prog := RetentionProgram(0, 40, dev.Geom.Cols, ^uint64(0), 30_000_000_000)
	res := e.Run(prog)
	flips := 0
	for _, w := range res.Reads {
		for d := ^w; d != 0; d &= d - 1 {
			flips++
		}
	}
	// Row 40 holds weak cells with probability ~1 - (1-0.05)^512; if
	// none landed there the read returns clean, which the model allows;
	// assert only consistency with ground truth.
	truthFlips := 0
	for _, c := range m.Cells() {
		if c.PhysRow == 40 && c.Bank == 0 && c.ChargedVal == 1 {
			truthFlips++
		}
	}
	if truthFlips > 0 && flips == 0 {
		t.Fatalf("retention program found 0 decays, ground truth has %d candidate cells", truthFlips)
	}
}

func TestRetentionProgramCleanWithoutWait(t *testing.T) {
	dev := device()
	m := retention.NewModel(dev.Geom, retention.DefaultParams(), rng.New(3))
	dev.AttachFault(m)
	e := NewEngine(dev, 0)
	prog := RetentionProgram(0, 20, dev.Geom.Cols, 0xa5a5a5a5a5a5a5a5, 1000)
	res := e.Run(prog)
	for i, w := range res.Reads {
		if w != 0xa5a5a5a5a5a5a5a5 {
			t.Fatalf("read %d = %x after 1 us wait", i, w)
		}
	}
}

func TestREFInstruction(t *testing.T) {
	dev := device()
	e := NewEngine(dev, 0)
	p := (&Program{}).REF().REF()
	res := e.Run(p)
	if dev.Stats.RowRefreshes == 0 {
		t.Fatal("REF refreshed nothing")
	}
	if res.EndTime < 2*dev.Timing.TRFC {
		t.Fatal("REF time not accounted")
	}
}

func TestOpcodeStrings(t *testing.T) {
	for op, want := range map[Opcode]string{
		OpACT: "ACT", OpPRE: "PRE", OpRD: "RD", OpWR: "WR",
		OpREF: "REF", OpWAIT: "WAIT", OpLOOP: "LOOP", Opcode(99): "???",
	} {
		if op.String() != want {
			t.Errorf("Opcode(%d) = %q, want %q", op, op.String(), want)
		}
	}
}

func TestNestedLoops(t *testing.T) {
	dev := device()
	e := NewEngine(dev, 0)
	// Inner loop: RD x3; outer loop repeats (ACT + inner + PRE) x2.
	p := &Program{}
	p.ACT(0, 1)
	p.RD(0, 0)
	p.Loop(1, 2) // RD runs 3x
	p.PRE(0)
	p.Loop(4, 1) // whole body runs 2x
	res := e.Run(p)
	if len(res.Reads) != 6 {
		t.Fatalf("nested loops produced %d reads, want 6", len(res.Reads))
	}
}
