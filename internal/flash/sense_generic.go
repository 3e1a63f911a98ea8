//go:build !amd64

package flash

import "unsafe"

// senseSweep is the portable scalar form of the sense kernel; the
// amd64 build replaces it with SSE2 assembly producing identical bits.
func senseSweep(vq, el, rd, ret *float64, n int, reads, wf, m0, span, lo, hi float64, out *uint64) {
	vqs := unsafe.Slice(vq, n)
	els := unsafe.Slice(el, n)
	rds := unsafe.Slice(rd, n)
	rets := unsafe.Slice(ret, n)
	outs := unsafe.Slice(out, n/64)
	var word uint64
	for c := 0; c < n; c++ {
		v := vqs[c] + clampPos(rds[c]*reads*wf*els[c])
		v -= clampPos(rets[c] * ((v - m0) / span) * span)
		word |= outside(float64(float32(v)), lo, hi) << uint(c&63)
		if c&63 == 63 {
			outs[c>>6] = word
			word = 0
		}
	}
}
