package matrix

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestMultiplyIdentity(t *testing.T) {
	n := 8
	a := GenOperand(1, n)
	id := make([]float64, n*n)
	for i := 0; i < n; i++ {
		id[i*n+i] = 1
	}
	c, _ := Multiply(a, id, n)
	for i := range a {
		if math.Abs(c[i]-a[i]) > 1e-12 {
			t.Fatalf("A·I ≠ A at %d: %v vs %v", i, c[i], a[i])
		}
	}
	c2, _ := Multiply(id, a, n)
	for i := range a {
		if math.Abs(c2[i]-a[i]) > 1e-12 {
			t.Fatalf("I·A ≠ A at %d", i)
		}
	}
}

func TestMultiplyKnownProduct(t *testing.T) {
	// [1 2; 3 4]·[5 6; 7 8] = [19 22; 43 50]
	a := []float64{1, 2, 3, 4}
	b := []float64{5, 6, 7, 8}
	c, _ := Multiply(a, b, 2)
	want := []float64{19, 22, 43, 50}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("c = %v, want %v", c, want)
		}
	}
}

func TestMultiplyAssociatesWithScalingProperty(t *testing.T) {
	// (αA)·B == α(A·B): checks the arithmetic path with random operands.
	f := func(seed uint16) bool {
		n := 6
		a := GenOperand(uint64(seed), n)
		b := GenOperand(uint64(seed)+9, n)
		scaled := make([]float64, len(a))
		for i := range a {
			scaled[i] = 2.5 * a[i]
		}
		ab, _ := Multiply(a, b, n)
		sab, _ := Multiply(scaled, b, n)
		for i := range ab {
			if math.Abs(sab[i]-2.5*ab[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiplyPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	Multiply(make([]float64, 4), make([]float64, 9), 3)
}

func TestOpCountsScaleCubically(t *testing.T) {
	r1 := mustRun(t, 1, 32)
	r2 := mustRun(t, 1, 64)
	ratio := float64(r2.Counts.FPOps) / float64(r1.Counts.FPOps)
	if math.Abs(ratio-8) > 0.01 {
		t.Fatalf("FP ops ratio for 2x size = %v, want 8 (cubic)", ratio)
	}
	if r1.Counts.FPOps != uint64(2*32*32*32) {
		t.Fatalf("FP ops = %d, want 2n³", r1.Counts.FPOps)
	}
}

func TestMixIsFPDominatedWithMemoryComponent(t *testing.T) {
	// Figure 2's gentle slowdowns rely on Matrix being FP-heavy; the
	// naive loop's column walk keeps a visible memory share.
	res := mustRun(t, 1, 128)
	mix := res.Counts.Mix()
	if mix.FP < 0.35 {
		t.Fatalf("FP share = %.3f, want ≥0.35", mix.FP)
	}
	if mix.Mem < 0.15 || mix.Mem > 0.45 {
		t.Fatalf("Mem share = %.3f, outside [0.15,0.45]", mix.Mem)
	}
}

func TestDeterministicChecksum(t *testing.T) {
	a := mustRun(t, 5, 64)
	b := mustRun(t, 5, 64)
	if a.Checksum != b.Checksum {
		t.Fatal("checksums diverged for identical seeds")
	}
	c := mustRun(t, 6, 64)
	if a.Checksum == c.Checksum {
		t.Fatal("different seeds gave identical checksum")
	}
}

func TestProfileRepeats(t *testing.T) {
	res := mustRun(t, 1, 32)
	p := Profile(32, 5)
	want := res.Counts.Cycles() * 5
	if math.Abs(p.TotalCycles()-want) > want*1e-9 {
		t.Fatalf("profile cycles %v, want %v", p.TotalCycles(), want)
	}
	if p.OverallMix().FP == 0 {
		t.Fatal("profile lost FP share")
	}
}

// TestCountsForMatchesMultiply pins the closed form Figure 2 replays to
// the counts the reference kernel tallies. The counts do not depend on
// the operands' values, so zero matrices suffice.
func TestCountsForMatchesMultiply(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7, 96, 160, 301, Small, Large} {
		zero := make([]float64, n*n)
		_, want := Multiply(zero, zero, n)
		if got := CountsFor(n); got != want {
			t.Fatalf("CountsFor(%d) = %+v, Multiply tallies %+v", n, got, want)
		}
	}
}

// mustRun is Run for tests: every product a test builds must pass the
// Freivalds check.
func mustRun(t *testing.T, seed uint64, n int) Result {
	t.Helper()
	res := Run(seed, n)
	if !res.Verified {
		t.Fatalf("Run(%d, %d): product failed verification", seed, n)
	}
	return res
}

// naiveMultiply is the paper's plain i-j-k loop, the reference the
// row-streaming kernel must reproduce bit for bit.
func naiveMultiply(a, b []float64, n int) []float64 {
	c := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for k := 0; k < n; k++ {
				sum += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = sum
		}
	}
	return c
}

func TestMultiplyMatchesNaiveLoopBitForBit(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 97, 160} {
		a := GenOperand(uint64(10*n), n)
		b := GenOperand(uint64(10*n+1), n)
		got, _ := Multiply(a, b, n)
		want := naiveMultiply(a, b, n)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: c[%d] = %v (%#016x), naive loop gives %v (%#016x)",
					n, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

func TestRunSmallChecksumPinned(t *testing.T) {
	// The bits the naive i-j-k loop produced for Figure 2's 512² shard
	// at seed 1: a kernel change that moves any element of the product
	// moves the Frobenius norm.
	const want = 0x40ae4afc05384ba2
	res := mustRun(t, 1, Small)
	if got := math.Float64bits(res.Checksum); got != want {
		t.Fatalf("Run(1, Small).Checksum = %v (%#016x), want %v (%#016x)",
			res.Checksum, got, math.Float64frombits(want), uint64(want))
	}
}

func TestVerifyCatchesOneWrongElement(t *testing.T) {
	for _, n := range []int{1, 8, 97} {
		a := GenOperand(3, n)
		b := GenOperand(4, n)
		c, _ := Multiply(a, b, n)
		if !verify(a, b, c, n, 5) {
			t.Fatalf("n=%d: correct product failed verification", n)
		}
		for _, at := range []int{0, n*n/2 + n/3, n*n - 1} {
			for _, wrong := range []float64{c[at] + 1e-3, math.NaN()} {
				bad := append([]float64(nil), c...)
				bad[at] = wrong
				if verify(a, b, bad, n, 5) {
					t.Fatalf("n=%d: product with c[%d] = %v instead of %v passed verification", n, at, wrong, c[at])
				}
			}
		}
	}
}

// BenchmarkMultiply times the reference kernel at Figure 2's quick
// (160²) and full (512²) sizes. Figure 2 itself replays CountsFor and
// never runs it.
func BenchmarkMultiply(b *testing.B) {
	for _, n := range []int{160, Small} {
		x := GenOperand(1, n)
		y := GenOperand(2, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for b.Loop() {
				Multiply(x, y, n)
			}
		})
	}
}
