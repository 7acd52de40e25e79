// Package matrix implements the paper's Matrix benchmark (§2): the
// multiplication of two square matrices of float64 with the plain
// non-optimized triple loop, at the paper's two sizes (512² and 1024²).
// It measures floating-point performance with a heavy streaming-memory
// component (the naive loop order walks one operand column-wise).
//
// The operation counts model that naive column-walk loop, which is what
// the simulated guest runs. The host forms the same sums row by row, so
// the product is bit-identical to the naive loop's at a fraction of the
// host time. Run checks every product with Freivalds' test, since no
// figure depends on its values.
package matrix
