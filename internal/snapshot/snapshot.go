// Package snapshot implements the crash-safety layer's on-disk
// checkpoint container and the binary codec every stateful simulator
// component serializes itself with.
//
// The container is versioned and self-describing:
//
//	offset  size  field
//	0       8     magic "RHSNAP\x01\n"
//	8       2     kind length K (big-endian uint16)
//	10      K     kind string (e.g. "repro/expruns")
//	10+K    4     payload format version (big-endian uint32)
//	14+K    8     payload length P (big-endian uint64)
//	22+K    P     payload (component-framed binary state)
//	22+K+P  32    SHA-256 over bytes [0, 22+K+P)
//
// Integrity comes before interpretation: ReadFile verifies the footer
// hash over the whole prefix before a single payload byte is decoded,
// so a truncated or bit-flipped checkpoint is refused with a typed
// error (errors.Is(err, ErrCorrupt)) and never partially loaded.
// Writes are atomic: the container is assembled in memory, written to
// a temporary file in the destination directory, synced, and renamed
// over the destination, so a crash mid-write leaves either the old
// checkpoint or none — never a torn one.
//
// Compatibility policy: the kind string namespaces checkpoint types
// (an experiment-run checkpoint is never confused with a
// fleet-campaign checkpoint), and the version gates decoding — readers
// accept only versions they know, refusing newer ones with ErrVersion
// rather than misinterpreting the payload. Payload components additionally frame
// themselves with short tags (Writer.Tag/Reader.Tag), so a decoder
// that drifts out of sync fails loudly at the next tag instead of
// silently reading garbage.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// Magic identifies a snapshot container file.
const Magic = "RHSNAP\x01\n"

// Sentinel error classes. All errors returned by this package wrap
// exactly one of them, so callers can classify failures with
// errors.Is regardless of the detail message.
var (
	// ErrCorrupt marks a checkpoint whose bytes fail integrity or
	// structural validation: bad magic, truncation, footer hash
	// mismatch, or a payload that decodes inconsistently.
	ErrCorrupt = errors.New("snapshot: corrupt checkpoint")
	// ErrVersion marks a checkpoint written by a newer (or unknown)
	// format version than the reader supports.
	ErrVersion = errors.New("snapshot: unsupported checkpoint version")
	// ErrKind marks a checkpoint of a different kind than requested
	// (e.g. loading a fleet checkpoint as a system checkpoint).
	ErrKind = errors.New("snapshot: wrong checkpoint kind")
	// ErrMismatch marks a structurally valid checkpoint that does not
	// match the configuration it is being restored into (different
	// geometry, topology, seed, or mitigation roster).
	ErrMismatch = errors.New("snapshot: checkpoint does not match configuration")
)

// Corruptf returns an ErrCorrupt-classed error with detail.
func Corruptf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Mismatchf returns an ErrMismatch-classed error with detail.
func Mismatchf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrMismatch, fmt.Sprintf(format, args...))
}

// maxSliceLen bounds decoded slice lengths so a corrupted length
// field cannot drive a multi-gigabyte allocation before the element
// reads fail.
const maxSliceLen = 1 << 28

// --- Codec ---

// Writer encodes binary state into an in-memory payload. All integers
// are big-endian fixed width; floats are IEEE-754 bit patterns. The
// zero value is ready to use.
type Writer struct {
	buf bytes.Buffer
}

// Bytes returns the encoded payload.
func (w *Writer) Bytes() []byte { return w.buf.Bytes() }

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf.WriteByte(v) }

// U64 writes a fixed-width uint64.
func (w *Writer) U64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	w.buf.Write(b[:])
}

// I64 writes an int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as an int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 writes a float64 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool writes a boolean byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes8 writes a length-prefixed byte slice.
func (w *Writer) Bytes8(b []byte) {
	w.U64(uint64(len(b)))
	w.buf.Write(b)
}

// Raw writes b verbatim, with no length prefix; Reader.Raw takes it
// back.
func (w *Writer) Raw(b []byte) { w.buf.Write(b) }

// String writes a length-prefixed string.
func (w *Writer) String(s string) { w.Bytes8([]byte(s)) }

// I64s writes a length-prefixed []int64.
func (w *Writer) I64s(v []int64) {
	w.U64(uint64(len(v)))
	for _, x := range v {
		w.I64(x)
	}
}

// Ints writes a length-prefixed []int.
func (w *Writer) Ints(v []int) {
	w.U64(uint64(len(v)))
	for _, x := range v {
		w.Int(x)
	}
}

// Tag writes a component frame tag. Readers consume it with
// Reader.Tag, which fails with ErrCorrupt on mismatch — the
// out-of-sync tripwire between independently evolved components.
func (w *Writer) Tag(name string) { w.String(name) }

// Reader decodes a payload produced by Writer. The first decode error
// sticks: every subsequent read returns zero values, and Err reports
// the failure, so decode sequences need only one error check at the
// end (plus any early structural checks the caller wants).
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps a payload.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// errShortU64 marks a U64 that ran past the payload. A failed read
// does not advance, so Err can still report where it happened.
var errShortU64 = errors.New("short uint64 read")

// Err returns the sticky decode error, if any.
func (r *Reader) Err() error {
	if r.err == errShortU64 {
		r.err = nil
		r.fail("payload truncated at offset %d (want 8 more bytes, have %d)", r.off, r.Remaining())
	}
	return r.err
}

// Remaining returns the number of unread payload bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

func (r *Reader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = Corruptf(format, args...)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail("payload truncated at offset %d (want %d more bytes, have %d)", r.off, n, len(r.b)-r.off)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U64 reads a uint64. It is small enough to inline at every call site:
// a short read records errShortU64, a sentinel that needs no call to
// build, and Err expands it into the detailed truncation error.
func (r *Reader) U64() uint64 {
	if r.err == nil && r.off <= len(r.b)-8 {
		v := binary.BigEndian.Uint64(r.b[r.off:])
		r.off += 8
		return v
	}
	if r.err == nil {
		r.err = errShortU64
	}
	return 0
}

// U64sInto decodes len(dst) fixed-width uint64s into dst, checking the
// length once. On a short payload it fails like any other read and
// leaves dst untouched.
func (r *Reader) U64sInto(dst []uint64) {
	b := r.take(8 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = binary.BigEndian.Uint64(b[8*i:])
	}
}

// Raw returns the next n payload bytes without copying them, failing
// like any other read if fewer are left. The slice aliases the payload:
// callers must not modify it.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// Skip advances past n bytes, failing like a read if fewer are left.
func (r *Reader) Skip(n int) { r.take(n) }

// Count reads an element count and fails with ErrCorrupt (returning 0)
// when that many elements of at least minBytes encoded bytes each
// cannot fit in the rest of the payload. Decoders size allocations by
// it, so a hostile count cannot drive an allocation larger than the
// payload it came in.
func (r *Reader) Count(minBytes int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Remaining()/minBytes) {
		r.fail("count %d at offset %d exceeds the %d bytes left (%d per element)", n, r.off-8, r.Remaining(), minBytes)
		return 0
	}
	return int(n)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int. A value this target's int cannot hold (beyond 32
// bits under GOARCH=386) fails with ErrCorrupt and reads as 0, so a
// decoder never range-checks a truncated value. On a 64-bit target the
// check compiles away.
func (r *Reader) Int() int {
	v := r.I64()
	if math.MaxInt < math.MaxInt64 {
		if v < math.MinInt || v > math.MaxInt {
			r.fail("int %d at offset %d does not fit this target's int", v, r.off-8)
			return 0
		}
	}
	return int(v)
}

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a boolean byte; any value other than 0 or 1 is corrupt.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("invalid boolean byte at offset %d", r.off-1)
		return false
	}
}

// sliceLen reads and bounds-checks a slice length.
func (r *Reader) sliceLen() int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > maxSliceLen || int(n) > r.Remaining() {
		// Every element is at least one byte, so a length beyond the
		// remaining payload is structurally impossible.
		r.fail("implausible slice length %d at offset %d", n, r.off-8)
		return 0
	}
	return int(n)
}

// Bytes8 reads a length-prefixed byte slice (copy).
func (r *Reader) Bytes8() []byte {
	n := r.sliceLen()
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes8()) }

// U64s reads a length-prefixed []uint64.
func (r *Reader) U64s() []uint64 {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > maxSliceLen || int(n)*8 > r.Remaining() {
		r.fail("implausible slice length %d at offset %d", n, r.off-8)
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
	}
	return out
}

// I64s reads a length-prefixed []int64.
func (r *Reader) I64s() []int64 {
	u := r.U64s()
	if u == nil {
		return nil
	}
	out := make([]int64, len(u))
	for i, x := range u {
		out[i] = int64(x)
	}
	return out
}

// Tag consumes a component frame tag and fails with ErrCorrupt if it
// does not match the expected name. The tag is compared in place, not
// copied out, and the error quotes at most its first 64 bytes, so a
// corrupt tag length does not copy the rest of the payload into the
// message.
func (r *Reader) Tag(name string) {
	got := r.take(r.sliceLen())
	if r.err == nil && string(got) != name {
		r.fail("component tag %q (%d bytes), want %q", got[:min(len(got), 64)], len(got), name)
	}
}

// --- Container ---

// Encode assembles a complete container (header, payload, footer) in
// memory. encode writes the payload.
func Encode(kind string, version uint32, encode func(*Writer) error) ([]byte, error) {
	var pw Writer
	if err := encode(&pw); err != nil {
		return nil, err
	}
	payload := pw.Bytes()
	var buf bytes.Buffer
	buf.WriteString(Magic)
	var klen [2]byte
	if len(kind) > math.MaxUint16 {
		return nil, fmt.Errorf("snapshot: kind %q too long", kind)
	}
	binary.BigEndian.PutUint16(klen[:], uint16(len(kind)))
	buf.Write(klen[:])
	buf.WriteString(kind)
	var vb [4]byte
	binary.BigEndian.PutUint32(vb[:], version)
	buf.Write(vb[:])
	var pl [8]byte
	binary.BigEndian.PutUint64(pl[:], uint64(len(payload)))
	buf.Write(pl[:])
	buf.Write(payload)
	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	return buf.Bytes(), nil
}

// Decode verifies a container's integrity and returns its payload
// reader. The SHA-256 footer is checked over the whole prefix before
// any payload byte is interpreted; version must be at most
// maxVersion.
func Decode(data []byte, kind string, maxVersion uint32) (r *Reader, version uint32, err error) {
	const fixed = len(Magic) + 2
	if len(data) < fixed+4+8+sha256.Size {
		return nil, 0, Corruptf("container truncated: %d bytes", len(data))
	}
	body, foot := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], foot) {
		return nil, 0, Corruptf("integrity footer mismatch (truncated or bit-flipped checkpoint)")
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, 0, Corruptf("bad magic")
	}
	klen := int(binary.BigEndian.Uint16(data[len(Magic):]))
	if fixed+klen+4+8+sha256.Size > len(data) {
		return nil, 0, Corruptf("kind field overruns container")
	}
	gotKind := string(data[fixed : fixed+klen])
	if gotKind != kind {
		return nil, 0, fmt.Errorf("%w: container holds %q, want %q", ErrKind, gotKind, kind)
	}
	off := fixed + klen
	version = binary.BigEndian.Uint32(data[off:])
	if version == 0 || version > maxVersion {
		return nil, 0, fmt.Errorf("%w: version %d, reader supports 1..%d", ErrVersion, version, maxVersion)
	}
	plen := binary.BigEndian.Uint64(data[off+4:])
	payloadStart := off + 4 + 8
	if uint64(len(body)-payloadStart) != plen {
		return nil, 0, Corruptf("payload length %d disagrees with container size", plen)
	}
	return NewReader(body[payloadStart:]), version, nil
}

// WriteFile atomically writes a container to path: the bytes are
// assembled in memory, written to a temporary file in path's
// directory, synced, and renamed over path.
func WriteFile(path, kind string, version uint32, encode func(*Writer) error) error {
	data, err := Encode(kind, version, encode)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { os.Remove(tmpName) }
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		cleanup()
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		cleanup()
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		cleanup()
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// ReadFile loads, verifies and decodes a container written by
// WriteFile. decode receives the verified payload and the container's
// version; its error is returned as-is (wrap with Corruptf/Mismatchf
// for classification). After decode returns, any unread payload bytes
// or a sticky reader error are reported as corruption, so a decoder
// that silently drifted cannot pass.
func ReadFile(path, kind string, maxVersion uint32, decode func(r *Reader, version uint32) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	r, version, err := Decode(data, kind, maxVersion)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := decode(r, version); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%s: %w", path, Corruptf("%d trailing payload bytes", r.Remaining()))
	}
	return nil
}
