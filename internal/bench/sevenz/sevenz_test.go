package sevenz

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"vmdg/internal/sim"
)

func TestRoundTripSimple(t *testing.T) {
	cases := [][]byte{
		[]byte(""),
		[]byte("a"),
		[]byte("abcabcabcabcabcabc"),
		[]byte("the quick brown fox jumps over the lazy dog"),
		bytes.Repeat([]byte("x"), 10000),
		bytes.Repeat([]byte("abcdefgh"), 2000),
	}
	for i, src := range cases {
		comp, _ := Compress(src)
		back, _ := Decompress(comp, len(src))
		if !bytes.Equal(back, src) {
			t.Fatalf("case %d: round trip failed (%d bytes)", i, len(src))
		}
	}
}

// TestAppendRecordMatchesSprintf: GenInput's record formatter writes
// what fmt.Sprintf("rec=%08d;", rec) does, zero padding included, up to
// and past the eight digits where the padding stops.
func TestAppendRecordMatchesSprintf(t *testing.T) {
	recs := []int64{99_999_999, 100_000_000, 1 << 40}
	for rec := int64(0); rec < 200_000; rec++ {
		recs = append(recs, rec)
	}
	var buf []byte
	for _, rec := range recs {
		buf = appendRecord(buf[:0], rec)
		if want := fmt.Sprintf("rec=%08d;", rec); string(buf) != want {
			t.Fatalf("appendRecord(%d) = %q, want %q", rec, buf, want)
		}
	}
}

func TestRoundTripGeneratedInput(t *testing.T) {
	for _, size := range []int{1, 100, 4096, 1 << 16, 1 << 18} {
		src := GenInput(42, size)
		comp, _ := Compress(src)
		back, _ := Decompress(comp, len(src))
		if !bytes.Equal(back, src) {
			t.Fatalf("size %d: round trip failed", size)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		comp, _ := Compress(data)
		back, _ := Decompress(comp, len(data))
		return bytes.Equal(back, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionActuallyCompresses(t *testing.T) {
	src := GenInput(7, 1<<18)
	comp, _ := Compress(src)
	ratio := float64(len(comp)) / float64(len(src))
	if ratio > 0.8 {
		t.Fatalf("ratio %.3f on compressible input; codec is not compressing", ratio)
	}
	if ratio < 0.05 {
		t.Fatalf("ratio %.3f suspiciously small; input generator too trivial", ratio)
	}
}

func TestIncompressibleInputSurvives(t *testing.T) {
	rng := sim.NewRNG(3)
	src := make([]byte, 1<<16)
	for i := range src {
		src[i] = byte(rng.Uint64())
	}
	comp, _ := Compress(src)
	back, _ := Decompress(comp, len(src))
	if !bytes.Equal(back, src) {
		t.Fatal("round trip failed on noise")
	}
	if float64(len(comp)) > 1.10*float64(len(src)) {
		t.Fatalf("noise expanded by %.2fx", float64(len(comp))/float64(len(src)))
	}
}

func TestDistSlotRoundTripProperty(t *testing.T) {
	f := func(draw uint32) bool {
		d := draw % windowSize
		slot, db, dv := distSlotOf(d)
		if db < 0 || db > 30 {
			return false
		}
		return distFromSlot(slot, dv) == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestGenInputDeterministicAndSized(t *testing.T) {
	a := GenInput(1, 10000)
	b := GenInput(1, 10000)
	if !bytes.Equal(a, b) {
		t.Fatal("GenInput not deterministic")
	}
	if len(a) != 10000 {
		t.Fatalf("len = %d", len(a))
	}
	c := GenInput(2, 10000)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds gave identical input")
	}
}

// TestGenInputAllocatesOnce: the buffer GenInput reserves holds the
// last append that overshoots size, so it is never regrown.
func TestGenInputAllocatesOnce(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 7, 42} {
		for _, size := range []int{128 << 10, 256 << 10, 512 << 10, 1 << 20} {
			if got := cap(GenInput(seed, size)); got > size+longestAppend {
				t.Errorf("cap(GenInput(%d, %d)) = %d, want at most %d", seed, size, got, size+longestAppend)
			}
		}
	}
}

func TestRunReportsOps(t *testing.T) {
	res := Run(1, 1<<16, 2)
	if !res.RoundTrip {
		t.Fatal("round trip failed in Run")
	}
	if res.InBytes != 2<<16 {
		t.Fatalf("InBytes = %d", res.InBytes)
	}
	if res.Counts.IntOps == 0 || res.Counts.MemOps == 0 {
		t.Fatal("no operations counted")
	}
	if res.Instructions() <= 0 {
		t.Fatal("no instructions")
	}
	if res.Ratio <= 0 || res.Ratio >= 1 {
		t.Fatalf("ratio = %v", res.Ratio)
	}
}

func TestProfileMatchesRun(t *testing.T) {
	prof, res := Profile(1, 1<<16, 4)
	if len(prof.Steps) == 0 {
		t.Fatal("empty profile")
	}
	// The profile's cycle total must equal the tally's (up to per-pass
	// integer division truncation).
	wantMin := res.Counts.Cycles() * 0.99
	if prof.TotalCycles() < wantMin || prof.TotalCycles() > res.Counts.Cycles() {
		t.Fatalf("profile cycles %v vs tally %v", prof.TotalCycles(), res.Counts.Cycles())
	}
}

func TestMemShareInCalibratedBand(t *testing.T) {
	// The host-impact experiments (Figures 5–8) depend on 7z's memory-
	// cycle share: the paper's 180% two-thread ceiling pins it near 0.40.
	// Guard the band so instrumentation changes do not silently decalibrate
	// the reproduction.
	_, res := Profile(1, 1<<18, 2)
	mem := res.Counts.Mix().Mem
	if mem < 0.40 || mem > 0.58 {
		t.Fatalf("7z memory share = %.3f, outside the calibrated [0.40,0.58] band", mem)
	}
}
