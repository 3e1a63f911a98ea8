package snapshot

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// writeSample writes a small container exercising every codec type.
func writeSample(t *testing.T, path string) {
	t.Helper()
	err := WriteFile(path, "repro/test", 3, func(w *Writer) error {
		w.Tag("sample")
		w.U8(7)
		w.U64(1<<63 + 12345)
		w.I64(-42)
		w.Int(-7)
		w.F64(3.14159)
		w.Bool(true)
		w.Bool(false)
		w.Bytes8([]byte{1, 2, 3})
		w.String("hello, snapshot")
		w.I64s([]int64{-1, 0, 1})
		w.Ints([]int{5, -5})
		return nil
	})
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
}

func readSample(path string) error {
	return ReadFile(path, "repro/test", 3, func(r *Reader, version uint32) error {
		if version != 3 {
			return Mismatchf("version %d", version)
		}
		r.Tag("sample")
		if got := r.U8(); got != 7 && r.Err() == nil {
			return Corruptf("u8 = %d", got)
		}
		if got := r.U64(); got != 1<<63+12345 && r.Err() == nil {
			return Corruptf("u64 = %d", got)
		}
		if got := r.I64(); got != -42 && r.Err() == nil {
			return Corruptf("i64 = %d", got)
		}
		if got := r.Int(); got != -7 && r.Err() == nil {
			return Corruptf("int = %d", got)
		}
		if got := r.F64(); got != 3.14159 && r.Err() == nil {
			return Corruptf("f64 = %v", got)
		}
		if got := r.Bool(); !got && r.Err() == nil {
			return Corruptf("bool1 = %v", got)
		}
		if got := r.Bool(); got && r.Err() == nil {
			return Corruptf("bool2 = %v", got)
		}
		b := r.Bytes8()
		if r.Err() == nil && (len(b) != 3 || b[0] != 1 || b[2] != 3) {
			return Corruptf("bytes = %v", b)
		}
		if got := r.String(); got != "hello, snapshot" && r.Err() == nil {
			return Corruptf("string = %q", got)
		}
		i := r.I64s()
		if r.Err() == nil && (len(i) != 3 || i[0] != -1 || i[2] != 1) {
			return Corruptf("i64s = %v", i)
		}
		// An []int reads back as its count and elements, each through
		// Int, which refuses a value its int cannot hold.
		if n := r.Count(8); n != 2 && r.Err() == nil {
			return Corruptf("ints count = %d", n)
		}
		if a, b := r.Int(), r.Int(); (a != 5 || b != -5) && r.Err() == nil {
			return Corruptf("ints = %d, %d", a, b)
		}
		return nil
	})
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ok.snap")
	writeSample(t, path)
	if err := readSample(path); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

func TestBitFlipRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flip.snap")
	writeSample(t, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit at every byte position in turn would be slow for
	// large files but this sample is tiny; cover every offset so the
	// header, payload and footer regions are all exercised.
	for off := 0; off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x10
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		err := readSample(path)
		if err == nil {
			t.Fatalf("bit flip at offset %d silently loaded", off)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at offset %d: error not ErrCorrupt: %v", off, err)
		}
	}
}

func TestTruncationRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trunc.snap")
	writeSample(t, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 8, len(data) / 2, len(data) - 1} {
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		err := readSample(path)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: want ErrCorrupt, got %v", n, err)
		}
	}
}

func TestWrongKindRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kind.snap")
	writeSample(t, path)
	err := ReadFile(path, "repro/other", 3, func(r *Reader, v uint32) error { return nil })
	if !errors.Is(err, ErrKind) {
		t.Fatalf("want ErrKind, got %v", err)
	}
}

func TestNewerVersionRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ver.snap")
	if err := WriteFile(path, "repro/test", 9, func(w *Writer) error {
		w.U64(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	err := ReadFile(path, "repro/test", 3, func(r *Reader, v uint32) error {
		r.U64()
		return nil
	})
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
}

func TestTrailingBytesRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trail.snap")
	if err := WriteFile(path, "repro/test", 1, func(w *Writer) error {
		w.U64(1)
		w.U64(2)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	err := ReadFile(path, "repro/test", 1, func(r *Reader, v uint32) error {
		r.U64() // leave one value unread
		return nil
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for trailing bytes, got %v", err)
	}
}

func TestTagMismatchIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tag.snap")
	if err := WriteFile(path, "repro/test", 1, func(w *Writer) error {
		w.Tag("alpha")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	err := ReadFile(path, "repro/test", 1, func(r *Reader, v uint32) error {
		r.Tag("beta")
		return nil
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for tag mismatch, got %v", err)
	}
	if !strings.Contains(err.Error(), "alpha") {
		t.Fatalf("error should name the mismatched tag: %v", err)
	}
}

func TestImplausibleSliceLength(t *testing.T) {
	// A reader handed a payload whose slice length exceeds the
	// remaining bytes must fail instead of allocating.
	var w Writer
	w.U64(1 << 40)
	r := NewReader(w.Bytes())
	if got := r.U64s(); got != nil {
		t.Fatalf("U64s returned %d elems from corrupt length", len(got))
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", r.Err())
	}
}

func TestAtomicWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "atomic.snap")
	writeSample(t, path)
	// A failed encode must leave neither destination nor temp files.
	path2 := filepath.Join(dir, "fail.snap")
	wantErr := errors.New("encode boom")
	if err := WriteFile(path2, "repro/test", 1, func(w *Writer) error {
		return wantErr
	}); !errors.Is(err, wantErr) {
		t.Fatalf("want encode error, got %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "atomic.snap" {
			t.Fatalf("unexpected leftover file %q", e.Name())
		}
	}
}

func TestStickyReaderError(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.U64() // truncated
	if r.Err() == nil {
		t.Fatal("want error after truncated read")
	}
	first := r.Err()
	// Subsequent reads return zero values and keep the first error.
	if got := r.U64(); got != 0 {
		t.Fatalf("post-error read = %d, want 0", got)
	}
	if r.Err() != first {
		t.Fatalf("error not sticky: %v vs %v", r.Err(), first)
	}
}

func TestShortU64ReportsOffset(t *testing.T) {
	r := NewReader(make([]byte, 12))
	r.U64()
	if got := r.U64(); got != 0 {
		t.Fatalf("short read = %d, want 0", got)
	}
	err := r.Err()
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "offset 8") {
		t.Fatalf("want ErrCorrupt naming offset 8, got %v", err)
	}
	if r.Remaining() != 4 {
		t.Fatalf("a failed read advanced the reader: %d bytes left, want 4", r.Remaining())
	}
}

// TestReaderIntRange pins Int's range: a value the target's int holds
// reads back exactly, and one it cannot hold (beyond 32 bits under
// GOARCH=386) fails with ErrCorrupt and reads as 0 instead of
// truncating. The 64-bit cases succeed on a 64-bit target.
func TestReaderIntRange(t *testing.T) {
	wide := strconv.IntSize == 64
	for _, tc := range []struct {
		v    int64
		fits bool
	}{
		{0, true},
		{-1, true},
		{math.MaxInt32, true},
		{math.MinInt32, true},
		{math.MaxInt32 + 1, wide},
		{math.MinInt32 - 1, wide},
		{1<<32 | 3, wide},
		{math.MaxInt64, wide},
		{math.MinInt64, wide},
	} {
		var w Writer
		w.I64(tc.v)
		w.I64(5)
		r := NewReader(w.Bytes())
		got := r.Int()
		if tc.fits {
			if int64(got) != tc.v || r.Err() != nil {
				t.Fatalf("Int(%d) = %d, %v; want %d, nil", tc.v, got, r.Err(), tc.v)
			}
			continue
		}
		if got != 0 || !errors.Is(r.Err(), ErrCorrupt) {
			t.Fatalf("Int(%d) = %d, %v; want 0, ErrCorrupt", tc.v, got, r.Err())
		}
		if next := r.Int(); next != 0 {
			t.Fatalf("Int after an overflow = %d, want 0 (sticky error)", next)
		}
	}
}

func TestReaderCount(t *testing.T) {
	var w Writer
	w.U64(2)
	w.U64(5)
	w.U64(0)
	w.Ints([]int{1, 2})
	r := NewReader(w.Bytes())
	// 2 elements of 16 bytes fit the 40 bytes left after the count.
	if n := r.Count(16); n != 2 || r.Err() != nil {
		t.Fatalf("Count = %d, %v; want 2, nil", n, r.Err())
	}
	// 5 elements of 8 bytes do not fit the 32 bytes left.
	if n := r.Count(8); n != 0 || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("hostile Count = %d, %v; want 0, ErrCorrupt", n, r.Err())
	}
	if n := r.Count(1); n != 0 {
		t.Fatalf("Count after an error = %d, want 0", n)
	}
	for _, n := range []uint64{1 << 60, ^uint64(0)} {
		var h Writer
		h.U64(n)
		h.U64(0)
		r := NewReader(h.Bytes())
		if got := r.Count(1); got != 0 || !errors.Is(r.Err(), ErrCorrupt) {
			t.Fatalf("count %d: Count = %d, %v; want 0, ErrCorrupt", n, got, r.Err())
		}
	}
}

func TestReaderU64sIntoAndSkip(t *testing.T) {
	var w Writer
	for i := uint64(1); i <= 5; i++ {
		w.U64(i * 11)
	}
	r := NewReader(w.Bytes())
	r.Skip(8)
	got := make([]uint64, 3)
	r.U64sInto(got)
	if r.Err() != nil || got[0] != 22 || got[1] != 33 || got[2] != 44 {
		t.Fatalf("U64sInto = %v, %v; want [22 33 44]", got, r.Err())
	}
	// Two words wanted, one left: the read fails and dst is untouched.
	dst := []uint64{7, 7}
	r.U64sInto(dst)
	if !errors.Is(r.Err(), ErrCorrupt) || dst[0] != 7 || dst[1] != 7 {
		t.Fatalf("short U64sInto: %v, %v; want ErrCorrupt and [7 7]", dst, r.Err())
	}
	r = NewReader(w.Bytes())
	r.Skip(41)
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("Skip past the end: want ErrCorrupt, got %v", r.Err())
	}
}

func TestTagComparedInPlace(t *testing.T) {
	var w Writer
	w.Tag("dram.Device")
	payload := w.Bytes()
	allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(payload)
		r.Tag("dram.Device")
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
	})
	if allocs != 0 {
		t.Fatalf("matching Tag allocates %v times per read, want 0", allocs)
	}
}

// TestTagMismatchQuotesPrefix pins that a tag whose corrupt length
// swallows the rest of the payload is reported by its first 64 bytes
// and its length, not quoted whole.
func TestTagMismatchQuotesPrefix(t *testing.T) {
	var w Writer
	w.U64(4096)
	w.Raw(bytes.Repeat([]byte{0xff}, 4096))
	r := NewReader(w.Bytes())
	r.Tag("rng")
	err := r.Err()
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "(4096 bytes)") || len(err.Error()) > 512 {
		t.Fatalf("want a short ErrCorrupt naming the tag's length, got %d bytes: %.200v", len(err.Error()), err)
	}
}

// TestRawRoundTrip pins the raw-bytes pair: Writer.Raw adds no length
// prefix, Reader.Raw returns a view of the payload and fails on a short
// payload like any other read.
func TestRawRoundTrip(t *testing.T) {
	var w Writer
	w.U8(9)
	w.Raw([]byte("abcdef"))
	payload := w.Bytes()
	if len(payload) != 7 {
		t.Fatalf("payload is %d bytes, want 7", len(payload))
	}
	r := NewReader(payload)
	r.U8()
	got := r.Raw(4)
	if r.Err() != nil || string(got) != "abcd" || &got[0] != &payload[1] {
		t.Fatalf("Raw(4) = %q, %v; want a view of \"abcd\"", got, r.Err())
	}
	if got := r.Raw(3); got != nil || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("short Raw = %q, %v; want nil, ErrCorrupt", got, r.Err())
	}
}
