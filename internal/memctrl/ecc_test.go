package memctrl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

func TestECCByName(t *testing.T) {
	for name, kind := range map[string]ECCKind{
		"": ECCNone, "none": ECCNone, "secded": ECCSECDED72,
		"indram": ECCInDRAM, "chipkill": ECCChipkill,
	} {
		cfg, err := ECCByName(name)
		if err != nil || cfg.Kind != kind {
			t.Fatalf("ECCByName(%q) = (%v, %v), want kind %v", name, cfg.Kind, err, kind)
		}
	}
	if _, err := ECCByName("hamming"); err == nil {
		t.Fatal("ECCByName accepted an unknown code")
	}
	for kind, want := range map[ECCKind]string{
		ECCNone: "none", ECCSECDED72: "secded", ECCInDRAM: "indram", ECCChipkill: "chipkill",
	} {
		if kind.String() != want {
			t.Fatalf("ECCKind(%d).String() = %q, want %q", kind, kind.String(), want)
		}
	}
}

func TestECCConfigCheckBits(t *testing.T) {
	for _, tc := range []struct {
		name string
		want int
	}{{"none", 0}, {"secded", 8}, {"indram", 7}, {"chipkill", 8}} {
		cfg, err := ECCByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := cfg.CheckBits(); got != tc.want {
			t.Fatalf("%s check bits = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// eccDriveWorkload runs an identical mixed write/read/hammer sequence
// on a controller.
func eccDriveWorkload(c *Controller) {
	g := c.Rank(0).Geom
	for r := 0; r < g.Rows; r += 3 {
		for col := 0; col < g.Cols; col++ {
			c.AccessRanked(0, Coord{Bank: 0, Row: r, Col: col}, true, uint64(r)*uint64(col+1))
		}
	}
	for r := 10; r < g.Rows-10; r += 41 {
		c.HammerPairsRanked(0, 0, r-1, r+1, 2000)
	}
	for r := 0; r < g.Rows; r += 3 {
		for col := 0; col < g.Cols; col++ {
			c.AccessRanked(0, Coord{Bank: 0, Row: r, Col: col}, false, 0)
		}
	}
}

// TestECCCleanTrafficTransparent pins the equivalence contract of the
// ECC layer: on clean traffic (no corrupted words) an ECC controller
// is bit-identical to a plain one — same data, same clocks, same
// device stats, zero ECC events. This is also the batched-vs-naive
// hammer equivalence, since ECC forces the exact per-access path.
func TestECCCleanTrafficTransparent(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 256, Cols: 8}
	build := func(cfg Config) *Controller {
		return New(dram.NewDevice(g), cfg)
	}
	plain := build(Config{})
	secded := build(Config{ECC: ECCConfig{Kind: ECCSECDED72}})
	eccDriveWorkload(plain)
	eccDriveWorkload(secded)
	if plain.Stats != secded.Stats {
		t.Fatalf("clean-traffic stats diverge:\nplain %+v\n ecc  %+v", plain.Stats, secded.Stats)
	}
	if plain.Now() != secded.Now() {
		t.Fatalf("clocks diverge: %d vs %d", plain.Now(), secded.Now())
	}
	if plain.Rank(0).Stats != secded.Rank(0).Stats {
		t.Fatal("device stats diverge on clean traffic")
	}
	if secded.Stats.ECCCorrected|secded.Stats.ECCDetected|secded.Stats.ECCSilent != 0 {
		t.Fatal("ECC events counted on clean traffic")
	}
}

// corruptWord flips the given within-word bits of (bank, logical row,
// col) behind the controller's back, as the disturb model does.
func corruptWord(c *Controller, bank, row, col int, bits ...int) {
	dev := c.Rank(0)
	phys := dev.PhysRow(row)
	for _, b := range bits {
		cur := dev.PhysBit(bank, phys, col*64+b)
		dev.SetPhysBit(bank, phys, col*64+b, cur^1)
	}
}

// TestECCReadClassification pins the read-path triage word for word
// under each configuration: singles corrected (and the read returns
// the original data), spread doubles detected, the nibble-packed
// triple silent under SECDED and the on-die model but corrected by
// chipkill, the four-nibble quad silent past chipkill.
func TestECCReadClassification(t *testing.T) {
	read := func(c *Controller, col int) uint64 {
		got, _ := c.AccessRanked(0, Coord{Bank: 0, Row: 5, Col: col}, false, 0)
		return got
	}
	setup := func(kind ECCKind) *Controller {
		g := dram.Geometry{Banks: 1, Rows: 64, Cols: 8}
		c := New(dram.NewDevice(g), Config{ECC: ECCConfig{Kind: kind}})
		for col := 0; col < g.Cols; col++ {
			c.AccessRanked(0, Coord{Bank: 0, Row: 5, Col: col}, true, ^uint64(0))
		}
		corruptWord(c, 0, 5, 0, 7)             // single
		corruptWord(c, 0, 5, 1, 3, 40)         // spread double
		corruptWord(c, 0, 5, 2, 0, 1, 2)       // nibble-packed triple
		corruptWord(c, 0, 5, 3, 0, 17, 33, 50) // four-nibble quad
		return c
	}

	c := setup(ECCSECDED72)
	if got := read(c, 0); got != ^uint64(0) {
		t.Fatalf("secded single-flip read = %#x, want corrected original", got)
	}
	read(c, 1)
	if got := read(c, 2); got == ^uint64(0) {
		t.Fatal("secded returned the original for the miscorrecting triple")
	}
	read(c, 3)
	if c.Stats.ECCCorrected != 1 || c.Stats.ECCDetected != 2 || c.Stats.ECCSilent != 1 {
		t.Fatalf("secded triage = %d/%d/%d, want 1 corrected, 2 detected (double+quad), 1 silent",
			c.Stats.ECCCorrected, c.Stats.ECCDetected, c.Stats.ECCSilent)
	}

	c = setup(ECCInDRAM)
	for col := 0; col < 4; col++ {
		read(c, col)
	}
	if c.Stats.ECCCorrected != 1 || c.Stats.ECCDetected != 1 || c.Stats.ECCSilent != 2 {
		t.Fatalf("indram triage = %d/%d/%d, want 1/1/2",
			c.Stats.ECCCorrected, c.Stats.ECCDetected, c.Stats.ECCSilent)
	}

	c = setup(ECCChipkill)
	if got := read(c, 2); got != ^uint64(0) {
		t.Fatalf("chipkill did not correct the one-symbol triple (read %#x)", got)
	}
	for _, col := range []int{0, 1, 3} {
		read(c, col)
	}
	if c.Stats.ECCCorrected != 2 || c.Stats.ECCDetected != 1 || c.Stats.ECCSilent != 1 {
		t.Fatalf("chipkill triage = %d/%d/%d, want 2/1/1",
			c.Stats.ECCCorrected, c.Stats.ECCDetected, c.Stats.ECCSilent)
	}

	// Re-reading a detected word keeps counting: every read of a
	// corrupted word is an ECC event.
	before := c.Stats.ECCDetected
	read(c, 1)
	if c.Stats.ECCDetected != before+1 {
		t.Fatal("re-read of a detected word did not count")
	}
}

func TestECCScrubberRequiresECC(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 8}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("attach to ECC-off controller", func() {
		New(dram.NewDevice(g), Config{}).Attach(NewScrubber(8))
	})
	mustPanic("negative rate", func() { NewScrubber(-1) })
	mustPanic("double bind", func() {
		sc := NewScrubber(8)
		New(dram.NewDevice(g), Config{ECC: ECCConfig{Kind: ECCSECDED72}}).Attach(sc)
		New(dram.NewDevice(g), Config{ECC: ECCConfig{Kind: ECCSECDED72}}).Attach(sc)
	})
}

// TestECCScrubberRepairs drives the patrol over a single corrupted
// word: one full sweep corrects the cell in the array, counts the
// repair, and leaves the next read clean.
func TestECCScrubberRepairs(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 8}
	dev := dram.NewDevice(g)
	c := New(dev, Config{ECC: ECCConfig{Kind: ECCSECDED72}})
	sc := NewScrubber(4)
	c.Attach(sc)
	for col := 0; col < g.Cols; col++ {
		c.AccessRanked(0, Coord{Bank: 0, Row: 9, Col: col}, true, 0xdeadbeefdeadbeef)
	}
	corruptWord(c, 0, 9, 3, 11)
	// One full patrol sweep: 64*8 words at 4 words/REF = 128 REFs.
	c.AdvanceTo(c.Now() + 200*dev.Timing.TREFI)
	if sc.Repairs != 1 {
		t.Fatalf("scrubber repairs = %d, want 1", sc.Repairs)
	}
	if c.Stats.ECCCorrected != 1 {
		t.Fatalf("scrub correction not counted (corrected=%d)", c.Stats.ECCCorrected)
	}
	if sc.WordsScanned < int64(g.Rows*g.Cols) {
		t.Fatalf("scrubber scanned %d words, want a full sweep", sc.WordsScanned)
	}
	if c.Stats.MitTime == 0 {
		t.Fatal("patrol reads cost no time")
	}
	before := c.Stats
	got, _ := c.AccessRanked(0, Coord{Bank: 0, Row: 9, Col: 3}, false, 0)
	if got != 0xdeadbeefdeadbeef {
		t.Fatalf("post-repair read = %#x, want original", got)
	}
	if c.Stats.ECCCorrected != before.ECCCorrected {
		t.Fatal("post-repair read still counts an ECC event")
	}
	if sc.StorageBits() == 0 {
		t.Fatal("scrubber claims zero cursor storage")
	}
	if sc.Name() == "" {
		t.Fatal("scrubber must be a named mitigation")
	}
}

// eccRig is a mid-campaign ECC+scrub controller for snapshot tests.
type eccRig struct {
	ctrl  *Controller
	model *disturb.Model
	scrub *Scrubber
}

func newECCRig(seed uint64) *eccRig {
	g := dram.Geometry{Banks: 2, Rows: 256, Cols: 8}
	p := disturb.DefaultParams()
	p.WeakCellFraction = 2e-3
	p.ThresholdMedian = 20e3
	p.MinThreshold = 8e3
	src := rng.New(seed)
	dev := dram.NewDevice(g)
	model := disturb.NewModel(g, p, src.Split())
	dev.AttachFault(model)
	ctrl := New(dev, Config{ECC: ECCConfig{Kind: ECCSECDED72}})
	scrub := NewScrubber(2)
	ctrl.Attach(scrub)
	for b := 0; b < g.Banks; b++ {
		for r := 0; r < g.Rows; r++ {
			for col := 0; col < g.Cols; col++ {
				ctrl.AccessRanked(0, Coord{Bank: b, Row: r, Col: col}, true, ^uint64(0))
			}
		}
	}
	return &eccRig{ctrl: ctrl, model: model, scrub: scrub}
}

func (rig *eccRig) drive(pairs int) {
	g := rig.ctrl.Rank(0).Geom
	for b := 0; b < g.Banks; b++ {
		for r := 10; r < g.Rows-10; r += 23 {
			rig.ctrl.HammerPairsRanked(0, b, r-1, r+1, pairs)
		}
	}
	for r := 0; r < g.Rows; r += 7 {
		for col := 0; col < g.Cols; col++ {
			rig.ctrl.AccessRanked(0, Coord{Bank: 0, Row: r, Col: col}, false, 0)
		}
	}
}

// TestECCStateRoundTrip pins checkpoint/restore through the ECC layer
// and the scrubber mid-campaign: a run interrupted after real flips,
// scrub repairs and ECC events resumes bit-identical (stats, patrol
// cursor, shadow words, cells) to the uninterrupted run.
func TestECCStateRoundTrip(t *testing.T) {
	for _, seed := range []uint64{1, 5} {
		ref := newECCRig(seed)
		ref.drive(3000)
		ref.drive(3000)

		a := newECCRig(seed)
		a.drive(3000)
		var cw, mw snapshot.Writer
		a.ctrl.SaveState(&cw)
		a.model.SaveState(&mw)

		b := newECCRig(seed)
		if err := b.ctrl.LoadState(snapshot.NewReader(cw.Bytes())); err != nil {
			t.Fatalf("seed %d: LoadState: %v", seed, err)
		}
		if err := b.model.LoadState(snapshot.NewReader(mw.Bytes())); err != nil {
			t.Fatalf("seed %d: model LoadState: %v", seed, err)
		}
		b.drive(3000)

		if b.ctrl.Stats != ref.ctrl.Stats {
			t.Fatalf("seed %d: stats diverge after ECC resume:\n got %+v\nwant %+v",
				seed, b.ctrl.Stats, ref.ctrl.Stats)
		}
		if b.scrub.Repairs != ref.scrub.Repairs || b.scrub.WordsScanned != ref.scrub.WordsScanned {
			t.Fatalf("seed %d: scrubber diverges after resume: %d/%d vs %d/%d", seed,
				b.scrub.Repairs, b.scrub.WordsScanned, ref.scrub.Repairs, ref.scrub.WordsScanned)
		}
		if b.ctrl.Now() != ref.ctrl.Now() {
			t.Fatalf("seed %d: clock diverges", seed)
		}
		dev, devRef := b.ctrl.Rank(0), ref.ctrl.Rank(0)
		for bank := 0; bank < dev.Geom.Banks; bank++ {
			for r := 0; r < dev.Geom.Rows; r++ {
				w1, w2 := dev.PhysRowWords(bank, r), devRef.PhysRowWords(bank, r)
				for i := range w1 {
					if w1[i] != w2[i] {
						t.Fatalf("seed %d: cell mismatch bank %d row %d word %d", seed, bank, r, i)
					}
				}
			}
		}
	}
}

// TestECCLoadStateRejectsMissingLayer pins the config-mismatch guard:
// a snapshot taken without an ECC layer cannot restore into a
// controller that has one.
func TestECCLoadStateRejectsMissingLayer(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 8}
	plain := New(dram.NewDevice(g), Config{})
	eccDriveWorkload(plain)
	var w snapshot.Writer
	plain.SaveState(&w)
	ecc := New(dram.NewDevice(g), Config{ECC: ECCConfig{Kind: ECCSECDED72}})
	if err := ecc.LoadState(snapshot.NewReader(w.Bytes())); err == nil {
		t.Fatal("ECC controller accepted a snapshot with no ECC payload")
	}
}

// eccShadow returns a layer of ranks ranks of g with every shadow word
// set from seed.
func eccShadow(g dram.Geometry, ranks int, seed uint64) *eccLayer {
	l := newECCLayer(ECCConfig{Kind: ECCSECDED72}, g, ranks)
	src := rng.New(seed)
	for _, banks := range l.shadow {
		for _, words := range banks {
			for i := range words {
				words[i] = src.Uint64()
			}
		}
	}
	return l
}

func eccShadowBytes(l *eccLayer) []byte {
	var w snapshot.Writer
	l.SaveState(&w)
	return w.Bytes()
}

// TestECCLoadStateInPlace pins that a shadow restore decodes straight
// into the installed shadow: it restores the saved words exactly and
// allocates nothing.
func TestECCLoadStateInPlace(t *testing.T) {
	g := dram.Geometry{Banks: 4, Rows: 32, Cols: 16}
	payload := eccShadowBytes(eccShadow(g, 2, 1))
	l := eccShadow(g, 2, 2)
	if err := l.LoadState(snapshot.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(eccShadowBytes(l), payload) {
		t.Fatal("restored shadow saves other bytes than it was restored from")
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := l.LoadState(snapshot.NewReader(payload)); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("an ECC shadow restore allocates %v times, want 0", n)
	}
}

// TestECCLoadStateFailureLeavesShadowUnchanged feeds a shadow restore
// payloads cut short or shaped for another layer, in the first and the
// last bank: each must fail, corrupt or mismatched, and leave every
// shadow word as it was, although a valid restore writes in place.
func TestECCLoadStateFailureLeavesShadowUnchanged(t *testing.T) {
	g := dram.Geometry{Banks: 2, Rows: 16, Cols: 4}
	full := eccShadowBytes(eccShadow(g, 2, 1))
	words := g.Rows * g.Cols
	// The payload is the tag, the rank count, and per rank a bank count
	// followed by per bank a word count and the words.
	rankBytes := 8 + g.Banks*(8+8*words)
	head := len(full) - 2*rankBytes - 8 // the rank count
	bank := func(rank, b int) int { return head + 8 + rank*rankBytes + 8 + b*(8+8*words) }
	if got := binary.BigEndian.Uint64(full[bank(1, 1):]); got != uint64(words) {
		t.Fatalf("last bank's word count %d, want %d", got, words)
	}
	patched := func(off int, v uint64) []byte {
		b := bytes.Clone(full)
		binary.BigEndian.PutUint64(b[off:], v)
		return b
	}
	cases := []struct {
		name    string
		payload []byte
		want    error
	}{
		{"cut in the last bank's words", full[:len(full)-1], snapshot.ErrCorrupt},
		{"cut in the first bank's words", full[:bank(0, 0)+8+8*words/2], snapshot.ErrCorrupt},
		{"cut before the rank count", full[:head+4], snapshot.ErrCorrupt},
		{"rank count", patched(head, 3), snapshot.ErrMismatch},
		{"bank count of the last rank", patched(bank(1, 0)-8, 1), snapshot.ErrMismatch},
		{"word count of the last bank", patched(bank(1, 1), uint64(words-1)), snapshot.ErrMismatch},
		{"huge word count of the first bank", patched(bank(0, 0), 1<<62), snapshot.ErrMismatch},
	}
	l := eccShadow(g, 2, 2)
	before := eccShadowBytes(l)
	for _, tc := range cases {
		if err := l.LoadState(snapshot.NewReader(tc.payload)); !errors.Is(err, tc.want) {
			t.Fatalf("%s: want %v, got %v", tc.name, tc.want, err)
		}
		if !bytes.Equal(eccShadowBytes(l), before) {
			t.Fatalf("%s: failed restore changed the shadow", tc.name)
		}
	}
}
