package memctrl

// The ECC layer puts the paper's field-error argument into the access
// path: deployed systems see retention and disturbance errors only
// through their ECC, which corrects some patterns, flags others, and
// silently miscorrects the rest (ECCploit, Cojocar et al. S&P 2019).
// Every read through an ECC-enabled controller is classified against
// the last word the controller itself wrote — the shadow word — so
// experiment flip counts split into corrected / detected / silent
// without the device model having to store check bits.
//
// Substitution notes (see DESIGN.md):
//   - SECDED72 runs the bit-exact internal/ecc decoder; disturbance
//     and retention flips land in the 64 data bits (the simulated
//     array stores data words only), while the fleet study (E73)
//     additionally models check-bit strikes.
//   - InDRAMECC and Chipkill are capability models: which patterns
//     they correct/detect, not generator polynomials.
//   - Instrumentation that pokes bits behind the controller
//     (SetPhysBit) deliberately bypasses the shadow: that is how
//     experiments inject the very errors the layer then classifies.

import (
	"fmt"
	"math/bits"

	"repro/internal/dram"
	"repro/internal/ecc"
	"repro/internal/snapshot"
)

// ECCKind selects the DIMM's ECC configuration.
type ECCKind int

const (
	// ECCNone is a non-ECC DIMM: reads return raw array data and the
	// controller is bit-identical to the pre-ECC stack.
	ECCNone ECCKind = iota
	// ECCSECDED72 is the bit-exact SECDED(72,64) extended Hamming code
	// of ECC DIMMs; >=3-bit patterns may silently miscorrect.
	ECCSECDED72
	// ECCInDRAM is an on-die (in-DRAM) block code modelled at the
	// capability level (ECCConfig.Block).
	ECCInDRAM
	// ECCChipkill is a symbol-oriented code correcting any pattern
	// confined to one symbol (ECCConfig.Symbol wide).
	ECCChipkill
)

// String names the kind for tables and CLI flags.
func (k ECCKind) String() string {
	switch k {
	case ECCNone:
		return "none"
	case ECCSECDED72:
		return "secded"
	case ECCInDRAM:
		return "indram"
	case ECCChipkill:
		return "chipkill"
	default:
		return "unknown"
	}
}

// ECCConfig selects and parameterizes the controller's ECC layer.
type ECCConfig struct {
	Kind ECCKind
	// Block parameterizes ECCInDRAM. Zero means the default on-die
	// code: a single-error-correcting block code over the 64-bit word.
	Block ecc.BlockCode
	// Symbol is the ECCChipkill symbol width in bits. Zero means 4
	// (x4 devices), the classic chipkill configuration.
	Symbol int
}

// ECCByName parses a CLI ECC name: none, secded, indram or chipkill.
func ECCByName(name string) (ECCConfig, error) {
	switch name {
	case "", "none":
		return ECCConfig{Kind: ECCNone}, nil
	case "secded":
		return ECCConfig{Kind: ECCSECDED72}, nil
	case "indram":
		return ECCConfig{Kind: ECCInDRAM}, nil
	case "chipkill":
		return ECCConfig{Kind: ECCChipkill}, nil
	default:
		return ECCConfig{}, fmt.Errorf("unknown ECC configuration %q (want none, secded, indram or chipkill)", name)
	}
}

// withDefaults resolves zero sub-parameters to the standard codes.
func (e ECCConfig) withDefaults() ECCConfig {
	if e.Kind == ECCInDRAM && e.Block.DataBits == 0 {
		e.Block = ecc.BlockCode{DataBits: 64, T: 1}
	}
	if e.Kind == ECCChipkill && e.Symbol == 0 {
		e.Symbol = 4
	}
	return e
}

// CheckBits returns the per-64-bit-word check-bit storage overhead of
// the configuration (the storage axis of the ECC substitution table).
func (e ECCConfig) CheckBits() int {
	e = e.withDefaults()
	switch e.Kind {
	case ECCSECDED72:
		return ecc.CheckBits()
	case ECCInDRAM:
		return e.Block.CheckBitsFor()
	case ECCChipkill:
		// Two redundant symbols (single-symbol-correct,
		// double-symbol-detect), as on x4 chipkill DIMMs.
		return 2 * e.Symbol
	default:
		return 0
	}
}

// eccOutcome is the controller-side triage of a corrupted word.
type eccOutcome int

const (
	eccCorrected eccOutcome = iota
	eccDetected
	eccSilent
)

// eccLayer classifies every read against the shadow word — the last
// data the controller wrote to that (rank, bank, physical row, column)
// — and maintains it on every write. Words never written through the
// controller compare against their initial zero, matching the device's
// zeroed arrays.
type eccLayer struct {
	cfg      ECCConfig `snapshot:"config"`
	rowWords int       `snapshot:"config"` // words per row (Geometry.Cols)
	// shadow is indexed [rank][bank][physRow*rowWords+col].
	shadow [][][]uint64
}

func newECCLayer(cfg ECCConfig, g dram.Geometry, ranks int) *eccLayer {
	l := &eccLayer{cfg: cfg.withDefaults(), rowWords: g.Cols}
	l.shadow = make([][][]uint64, ranks)
	for r := range l.shadow {
		l.shadow[r] = make([][]uint64, g.Banks)
		for b := range l.shadow[r] {
			l.shadow[r][b] = make([]uint64, g.Rows*g.Cols)
		}
	}
	return l
}

// onWrite records the word the controller stored.
func (l *eccLayer) onWrite(rank, bank, physRow, col int, data uint64) {
	l.shadow[rank][bank][physRow*l.rowWords+col] = data
}

// onRead classifies a read word against its shadow, bumps the ECC
// stats, and returns the data the requester sees: the original word
// when the code corrects, the raw word when it only detects, and the
// (wrong) decoder output on a silent miscorrection. Clean reads cost
// nothing and count nothing. The repeated-read behaviour is real:
// demand reads do not scrub, so an uncorrected word counts an event on
// every read until a write or patrol scrub repairs it.
func (l *eccLayer) onRead(st *Stats, rank, bank, physRow, col int, got uint64) uint64 {
	want := l.shadow[rank][bank][physRow*l.rowWords+col]
	if got == want {
		return got
	}
	val, oc := l.classify(want, got)
	st.countECC(oc, 1)
	return val
}

// onReads is onRead for n reads of one unchanged word whose data is
// discarded (the hammer kernel's reads): one classification, counted
// n times.
func (l *eccLayer) onReads(st *Stats, rank, bank, physRow, col int, got uint64, n int64) {
	if want := l.shadow[rank][bank][physRow*l.rowWords+col]; got != want {
		_, oc := l.classify(want, got)
		st.countECC(oc, n)
	}
}

// countECC adds n events of one triage outcome.
func (s *Stats) countECC(oc eccOutcome, n int64) {
	switch oc {
	case eccCorrected:
		s.ECCCorrected += n
	case eccDetected:
		s.ECCDetected += n
	default:
		s.ECCSilent += n
	}
}

// classify triages a corrupted word (got != want) under the configured
// code and returns the post-decode data alongside the verdict.
func (l *eccLayer) classify(want, got uint64) (uint64, eccOutcome) {
	diff := want ^ got
	switch l.cfg.Kind {
	case ECCSECDED72:
		// Rebuild the codeword the DIMM would present: the stored
		// word's codeword with the array's data-bit flips applied
		// (check bits are struck only in the fleet model, E73).
		cw := ecc.Encode(want)
		for d := diff; d != 0; d &= d - 1 {
			cw.FlipBit(ecc.DataPosition(bits.TrailingZeros64(d)))
		}
		data, out := ecc.Decode(cw)
		switch out {
		case ecc.OK, ecc.Corrected:
			if data == want {
				return want, eccCorrected
			}
			return data, eccSilent // miscorrection: wrong data, no flag
		default:
			return got, eccDetected
		}
	case ECCInDRAM:
		n := bits.OnesCount64(diff)
		switch {
		case l.cfg.Block.Correctable(n):
			return want, eccCorrected
		case l.cfg.Block.Detectable(n):
			return got, eccDetected
		default:
			return got, eccSilent
		}
	case ECCChipkill:
		positions := make([]int, 0, bits.OnesCount64(diff))
		for d := diff; d != 0; d &= d - 1 {
			positions = append(positions, bits.TrailingZeros64(d))
		}
		ck := ecc.Chipkill{SymbolBits: l.cfg.Symbol, WordBits: 64}
		switch {
		case ck.Correctable(positions):
			return want, eccCorrected
		case ck.Detectable(positions):
			return got, eccDetected
		default:
			return got, eccSilent
		}
	default:
		panic("memctrl: eccLayer constructed with ECCNone")
	}
}

// SaveState serializes the shadow array (the layer's only mutable
// state; the configuration is construction-time).
func (l *eccLayer) SaveState(w *snapshot.Writer) {
	w.Tag("memctrl.eccLayer")
	w.U64(uint64(len(l.shadow)))
	for _, banks := range l.shadow {
		w.U64(uint64(len(banks)))
		for _, words := range banks {
			w.U64(uint64(len(words)))
			for _, v := range words {
				w.U64(v)
			}
		}
	}
}

// LoadState restores a shadow saved by SaveState into a layer of the
// same shape.
func (l *eccLayer) LoadState(r *snapshot.Reader) error {
	r.Tag("memctrl.eccLayer")
	nr := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if int(nr) != len(l.shadow) {
		return snapshot.Mismatchf("ECC shadow has %d ranks, checkpoint holds %d", len(l.shadow), nr)
	}
	staged := make([][][]uint64, nr)
	for ri := range staged {
		nb := r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		if int(nb) != len(l.shadow[ri]) {
			return snapshot.Mismatchf("ECC shadow rank %d has %d banks, checkpoint holds %d", ri, len(l.shadow[ri]), nb)
		}
		staged[ri] = make([][]uint64, nb)
		for bi := range staged[ri] {
			nw := r.U64()
			if err := r.Err(); err != nil {
				return err
			}
			if int(nw) != len(l.shadow[ri][bi]) {
				return snapshot.Mismatchf("ECC shadow rank %d bank %d has %d words, checkpoint holds %d", ri, bi, len(l.shadow[ri][bi]), nw)
			}
			words := make([]uint64, nw)
			for i := range words {
				words[i] = r.U64()
			}
			staged[ri][bi] = words
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	for ri := range l.shadow {
		for bi := range l.shadow[ri] {
			copy(l.shadow[ri][bi], staged[ri][bi])
		}
	}
	return nil
}

// --- Scrubber ---

// Scrubber is patrol scrub as a passive mitigation: each REF command
// advances a cursor over the channel's words, reading each through the
// ECC layer and writing corrected data back — the background process
// that keeps single-bit errors from accumulating into uncorrectable
// (or silently miscorrectable) multi-bit words. It composes with
// frontier mitigations and RAIDR the way RefreshScaling does: passive,
// so the batched hammer hot path stays enabled, and driven entirely
// from serviceRefresh.
//
// Cost model: each scanned word charges one burst time (TBURST) of
// channel time to MitTime, the patrol's bandwidth tax. A word whose
// error the code only detects is logged (ECCDetected) on every pass
// but left in place; a silently miscorrectable word is "repaired" to
// the decoder's wrong output, making the corruption permanent —
// exactly what hardware scrub-writeback does.
type Scrubber struct {
	// WordsPerREF is the patrol rate: words scanned per REF command.
	// 8192 REFs arrive per 64 ms retention window, so a rate of W
	// covers W*8192 words per window.
	WordsPerREF int `snapshot:"config"`
	// WordsScanned and Repairs count patrol activity: words examined
	// and single-error words written back clean.
	WordsScanned int64
	Repairs      int64

	pos  int         // patrol cursor over rank-major flattened words
	ctrl *Controller `snapshot:"derived"` // bound channel (one per Scrubber)
}

// NewScrubber returns a patrol scrubber scanning wordsPerREF words per
// REF command. Attach panics if the controller has no ECC layer.
func NewScrubber(wordsPerREF int) *Scrubber {
	if wordsPerREF < 0 {
		panic(fmt.Sprintf("memctrl: NewScrubber rate %d out of range", wordsPerREF))
	}
	return &Scrubber{WordsPerREF: wordsPerREF}
}

// bind is called by Attach: patrol scrub is meaningless without an ECC
// layer to classify what it reads, and a cursor cannot be shared
// between channels.
func (s *Scrubber) bind(c *Controller) {
	if c.ecc == nil {
		panic("memctrl: Scrubber requires an ECC-enabled controller (Config.ECC)")
	}
	if s.ctrl != nil && s.ctrl != c {
		panic("memctrl: Scrubber already attached to another channel; attach one instance per channel")
	}
	s.ctrl = c
}

// Name implements Mitigation.
func (s *Scrubber) Name() string { return fmt.Sprintf("scrub-x%d", s.WordsPerREF) }

// OnActivate implements Mitigation: patrol scrub observes no
// activations.
func (s *Scrubber) OnActivate(c *Controller, bank, logRow int) {}

// OnAutoRefresh implements Mitigation: each REF advances the patrol.
func (s *Scrubber) OnAutoRefresh(c *Controller) {
	if s.WordsPerREF <= 0 {
		return
	}
	g := c.cfg.Geom
	rowWords := g.Cols
	total := len(c.ranks) * g.Banks * g.Rows * rowWords
	var cost dram.Time
	for i := 0; i < s.WordsPerREF; i++ {
		p := s.pos
		s.pos++
		if s.pos >= total {
			s.pos = 0
		}
		col := p % rowWords
		p /= rowWords
		row := p % g.Rows
		p /= g.Rows
		bank := p % g.Banks
		rank := p / g.Banks
		words := c.ranks[rank].PhysRowWords(bank, row)
		got := words[col]
		want := c.ecc.shadow[rank][bank][row*rowWords+col]
		s.WordsScanned++
		cost += c.ranks[0].Timing.TBURST
		if got == want {
			continue
		}
		val, oc := c.ecc.classify(want, got)
		switch oc {
		case eccCorrected:
			words[col] = want
			s.Repairs++
			c.Stats.ECCCorrected++
		case eccDetected:
			c.Stats.ECCDetected++
		default:
			// Scrub-writeback believes the decoder: the wrong word is
			// written to the array and adopted as the new shadow.
			words[col] = val
			c.ecc.shadow[rank][bank][row*rowWords+col] = val
			c.Stats.ECCSilent++
		}
	}
	c.now += cost
	c.Stats.MitTime += cost
}

// StorageBits implements Mitigation: the patrol cursor.
func (s *Scrubber) StorageBits() int64 {
	if s.ctrl == nil {
		return 0
	}
	g := s.ctrl.cfg.Geom
	total := len(s.ctrl.ranks) * g.Banks * g.Rows * g.Cols
	return int64(bits.Len(uint(total)))
}

// Passive implements the passiveMitigation hook: scrubbing observes no
// activations, so the hammer kernel skips it per access.
func (s *Scrubber) Passive() {}

// SaveState implements StatefulMitigation.
func (s *Scrubber) SaveState(w *snapshot.Writer) {
	w.Tag("mit.Scrubber")
	w.Int(s.pos)
	w.I64(s.WordsScanned)
	w.I64(s.Repairs)
}

// LoadState implements StatefulMitigation.
func (s *Scrubber) LoadState(r *snapshot.Reader) error {
	r.Tag("mit.Scrubber")
	pos := r.Int()
	scanned := r.I64()
	repairs := r.I64()
	if err := r.Err(); err != nil {
		return err
	}
	if s.ctrl != nil {
		g := s.ctrl.cfg.Geom
		if total := len(s.ctrl.ranks) * g.Banks * g.Rows * g.Cols; pos < 0 || pos >= total {
			return snapshot.Corruptf("Scrubber cursor %d out of range for %d words", pos, total)
		}
	}
	s.pos = pos
	s.WordsScanned = scanned
	s.Repairs = repairs
	return nil
}
