package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), 0 for none — statistics.median in Python.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the same
// method as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here and by any Python
// tooling agree to the last digit. Fewer than two values have no
// spread: both quartiles are the single value (or 0).
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise a bound has to clear.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// tailLadder lists the percentiles a tail is reported at, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tailQuantile picks the highest percentile of the ladder that has at
// least ten of n samples beyond it; ok is false when n is too small
// for even the median to qualify.
func tailQuantile(n int) (q float64, ok bool) {
	for _, q := range tailLadder {
		if n-rank(q, n) >= 10 {
			return q, true
		}
	}
	return 0, false
}

// rank is the 1-based nearest rank of the q-quantile of n samples; the
// slack keeps 0.99×1000 at 990 despite binary rounding.
func rank(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// percentile is the nearest-rank q-quantile of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[max(rank(q, len(xs)), 1)-1]
}

// tail reports xs at its tailQuantile, or 0 when xs is too small to
// support any percentile of the ladder.
func tail(xs []float64) float64 {
	q, ok := tailQuantile(len(xs))
	if !ok {
		return 0
	}
	return percentile(xs, q)
}

// regressed reports whether cur is worse than base by more than the
// metric allows: its bound as a share of base, but never less than its
// absolute floor. A zero bound and floor make any worsening a
// regression (failed_ratio).
func (d metricDef) regressed(base, cur float64) bool {
	allow := math.Max(d.Bound*math.Abs(base), d.Floor)
	if d.Better == "higher" {
		return cur < base-allow
	}
	return cur > base+allow
}
