// Package matrix implements the paper's Matrix benchmark (§2): the
// multiplication of two square matrices of float64 with the plain
// non-optimized triple loop, at the paper's two sizes (512² and 1024²).
// It measures floating-point performance with a heavy streaming-memory
// component (the naive loop order walks one operand column-wise).
//
// The operation counts model that naive column-walk loop, which is what
// the simulated guest runs. They depend on the size alone, so Figure 2
// replays CountsFor, their closed form, and forms no product. Multiply,
// Run and verify are the reference that closed form is pinned to:
// Multiply forms the same sums row by row, bit-identical to the naive
// loop's, and tallies the counts as it goes; Run checks its product
// with Freivalds' test.
package matrix
