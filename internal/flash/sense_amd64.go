//go:build amd64

package flash

// The SSE2 sense kernel in sense_amd64.s evaluates the hot read path
// (read disturb and retention both active) two cells per step. Each
// packed lane performs exactly the scalar operation sequence —
// multiply chains in the Reference's association order, the same
// single division, MAXPD against +0 for the `> 0` guards (equal or
// -0 lanes yield +0, which is what clampPos adds), and
// CVTPD2PS/CVTPS2PD for the float32 storage round-trip — so the page
// bits are bit-identical to the Reference. SSE2 is part of the amd64
// baseline, so no feature detection is needed.

// senseSweep senses n cells (n a multiple of 64) and packs the bits
// outside(ve, lo, hi) into out (n/64 words).
//
//go:noescape
func senseSweep(vq, el, rd, ret *float64, n int, reads, wf, m0, span, lo, hi float64, out *uint64)
