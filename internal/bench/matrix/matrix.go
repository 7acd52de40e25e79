package matrix

import (
	"fmt"
	"math"

	"vmdg/internal/cost"
	"vmdg/internal/sim"
)

// Sizes used in the paper.
const (
	Small = 512
	Large = 1024
)

// Multiply computes C = A·B and tallies the operations of the linear
// (non-blocked, non-vectorized) algorithm: per inner iteration one
// multiply, one add (2 FP ops), two loads and the accumulator traffic.
//
// The counts model the naive i-j-k loop, whose column walk of B is what
// the simulated guest runs. The host forms the same sums row by row
// (i-k-j over contiguous rows of B and C): every element of C starts at
// 0 and adds its n products in order k = 0..n-1, so C is bit-identical
// to the naive loop's.
func Multiply(a, b []float64, n int) ([]float64, cost.Counts) {
	if len(a) != n*n || len(b) != n*n {
		panic(fmt.Sprintf("matrix: operands %d,%d for n=%d", len(a), len(b), n))
	}
	c := make([]float64, n*n)
	var ops cost.Counts
	for i := 0; i < n; i++ {
		ci := c[i*n : i*n+n] // row i of C
		for k, aik := range a[i*n : i*n+n] {
			bk := b[k*n:][:len(ci)] // row k of B
			for j, bkj := range bk {
				ci[j] += aik * bkj
			}
		}
		// Tally per row of output to keep the hot loop clean: n² inner
		// iterations of the naive loop per row batch of n outputs. The
		// inner loop is two flops plus trivial register-resident
		// induction; the column walk of B generates the benchmark's bus
		// traffic.
		ops.FPOps += uint64(2 * n * n)
		ops.MemOps += uint64(n*n) / 4
		ops.IntOps += uint64(n*n) / 2
	}
	return c, ops
}

// GenOperand builds a deterministic matrix with entries in [-1, 1).
func GenOperand(seed uint64, n int) []float64 {
	rng := sim.NewRNG(seed)
	m := make([]float64, n*n)
	for i := range m {
		m[i] = 2*rng.Float64() - 1
	}
	return m
}

// Result summarizes a run.
type Result struct {
	N        int
	Counts   cost.Counts
	Checksum float64 // Frobenius norm of the product, for verification
	Verified bool    // the product passed Freivalds' check
}

// Run multiplies two generated n×n matrices and checks the product.
func Run(seed uint64, n int) Result {
	a := GenOperand(seed, n)
	b := GenOperand(seed+1, n)
	c, ops := Multiply(a, b, n)
	var norm float64
	for _, v := range c {
		norm += v * v
	}
	return Result{N: n, Counts: ops, Checksum: math.Sqrt(norm), Verified: verify(a, b, c, n, seed+2)}
}

// verify reports whether c = a·b passes Freivalds' check: for a seeded
// ±1 vector x, c·x must equal a·(b·x) within the rounding both sides
// can carry. It costs O(n²) against the product's O(n³). An element of
// c that is off by δ moves its row of c·x by exactly ±δ, so a single
// wrong element above the tolerance is caught with certainty.
func verify(a, b, c []float64, n int, seed uint64) bool {
	rng := sim.NewRNG(seed)
	x := make([]float64, n)
	for j := range x {
		x[j] = 1
		if rng.Uint64()&1 == 1 {
			x[j] = -1
		}
	}
	// bx = B·x, and babs = |B|·1 so that bound = (|A|·|B|·1)_i below
	// caps every term and partial sum on both sides of row i.
	bx := make([]float64, n)
	babs := make([]float64, n)
	for k := 0; k < n; k++ {
		var s, m float64
		for j, v := range b[k*n : k*n+n] {
			s += v * x[j]
			m += math.Abs(v)
		}
		bx[k], babs[k] = s, m
	}
	// Both sides of row i are sums of n rounded terms over operands
	// that were themselves sums of n rounded terms, so each is within
	// about 2n·u·bound of the exact value (u = 2⁻⁵³). The tolerance is
	// twice the two errors' sum.
	tol := 8 * float64(n) * 0x1p-53
	for i := 0; i < n; i++ {
		var abx, bound, cx float64
		for k, v := range a[i*n : i*n+n] {
			abx += v * bx[k]
			bound += math.Abs(v) * babs[k]
		}
		for j, v := range c[i*n : i*n+n] {
			cx += v * x[j]
		}
		if !(math.Abs(cx-abx) <= tol*bound) {
			return false
		}
	}
	return true
}

// Profile captures the benchmark for simulator replay: reps multiplications
// at size n (the paper repeats each test ≥50 times; replay makes that
// cheap).
func Profile(seed uint64, n, reps int) (*cost.Profile, Result) {
	res := Run(seed, n)
	m := cost.NewMeter(fmt.Sprintf("matrix-%d", n))
	for r := 0; r < reps; r++ {
		m.Ops(res.Counts)
	}
	return m.Profile(), res
}
