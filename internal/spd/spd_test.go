package spd

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dram"
	"repro/internal/rng"
)

func TestRoundTripIdentity(t *testing.T) {
	rt := dram.IdentityRemap(1024)
	blob := Encode(rt)
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.PhysSlice(), rt.PhysSlice()) {
		t.Fatal("identity remap did not round-trip")
	}
	// Identity encodes with zero exceptions: 17 bytes.
	if len(blob) != 17 {
		t.Errorf("identity blob is %d bytes, want 17", len(blob))
	}
}

func TestRoundTripRandom(t *testing.T) {
	if err := quick.Check(func(seed uint64, fRaw uint8) bool {
		f := float64(fRaw%60) / 100
		rt := dram.RandomRemap(512, f, rng.New(seed))
		got, err := Decode(Encode(rt))
		if err != nil {
			return false
		}
		for l := 0; l < 512; l++ {
			if got.Phys(l) != rt.Phys(l) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	rt := dram.RandomRemap(256, 0.2, rng.New(7))
	blob := Encode(rt)
	for i := 0; i < len(blob); i++ {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Fatalf("corruption at byte %d not detected", i)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	blob := Encode(dram.RandomRemap(64, 0.3, rng.New(1)))
	for cut := 0; cut < len(blob); cut++ {
		if _, err := Decode(blob[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes not detected", cut)
		}
	}
}

func TestDecodeRejectsBadMagicAndVersion(t *testing.T) {
	// Hand-build otherwise valid blobs to hit the specific checks.
	rt := dram.IdentityRemap(8)
	blob := Encode(rt)
	blob[0] = 'X'
	reseal(blob)
	if _, err := Decode(blob); err == nil {
		t.Error("bad magic accepted")
	}
	blob = Encode(rt)
	blob[4] = 99
	reseal(blob)
	if _, err := Decode(blob); err == nil {
		t.Error("bad version accepted")
	}
}

// reseal recomputes the trailing CRC after a deliberate mutation so the
// test reaches the structural check behind the CRC.
func reseal(blob []byte) {
	body := blob[:len(blob)-4]
	binary.LittleEndian.PutUint32(blob[len(blob)-4:], crc32.ChecksumIEEE(body))
}

func TestOracleIdentity(t *testing.T) {
	o := NewOracle(dram.IdentityRemap(100))
	n := o.NeighborsOf(50, 1)
	if len(n) != 2 || n[0] != 49 || n[1] != 51 {
		t.Fatalf("neighbors of 50 = %v", n)
	}
	if got := o.NeighborsOf(0, 1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("edge neighbors = %v", got)
	}
	if got := o.NeighborsOf(99, 2); len(got) != 1 || got[0] != 97 {
		t.Fatalf("edge dist-2 neighbors = %v", got)
	}
}

func TestOracleTracksRemapping(t *testing.T) {
	src := rng.New(3)
	rt := dram.RandomRemap(128, 0.5, src)
	o := NewOracle(rt)
	for l := 0; l < 128; l++ {
		for _, n := range o.NeighborsOf(l, 1) {
			dp := rt.Phys(n) - rt.Phys(l)
			if dp != 1 && dp != -1 {
				t.Fatalf("oracle neighbor %d of %d is at physical distance %d", n, l, dp)
			}
		}
	}
}
