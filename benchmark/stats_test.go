package main

import (
	"math"
	"testing"
	"time"
)

// The expectations are Python's statistics.median and
// statistics.quantiles(xs, n=4), the definitions the spreads are judged
// by.
func TestMedianAndQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs             []float64
		med, q1, q3    float64
		wantSpreadZero bool
	}{
		{xs: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, med: 5.5, q1: 2.75, q3: 8.25},
		{xs: []float64{3.1, 1.2, 5.5}, med: 3.1, q1: 1.2, q3: 5.5},
		{xs: []float64{10, 20}, med: 15, q1: 7.5, q3: 22.5},
		{xs: []float64{5, 1, 4, 2, 3, 9, 7}, med: 4, q1: 2, q3: 7},
		{xs: []float64{42}, med: 42, q1: 42, q3: 42, wantSpreadZero: true},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
		if want := (c.q3 - c.q1) / c.med; math.Abs(spread(c.xs)-want) > 1e-12 || (c.wantSpreadZero && spread(c.xs) != 0) {
			t.Errorf("spread(%v) = %v, want %v", c.xs, spread(c.xs), want)
		}
	}
	if median(nil) != 0 || spread(nil) != 0 {
		t.Error("an empty sample must read 0")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n  int
		q  float64
		ok bool
	}{
		{n: 10_000, q: 0.999, ok: true}, // 10 beyond p99.9
		{n: 9_999, q: 0.99, ok: true},   // only 9 beyond p99.9
		{n: 1_000, q: 0.99, ok: true},
		{n: 999, q: 0.95, ok: true},
		{n: 200, q: 0.95, ok: true},
		{n: 100, q: 0.9, ok: true},
		{n: 40, q: 0.75, ok: true},
		{n: 20, q: 0.5, ok: true},
		{n: 19, ok: false},
		{n: 0, ok: false},
	}
	for _, c := range cases {
		q, ok := tailQuantile(c.n)
		if ok != c.ok || q != c.q {
			t.Errorf("tailQuantile(%d) = %v, %v, want %v, %v", c.n, q, ok, c.q, c.ok)
		}
		if ok && c.n-rank(q, c.n) < 10 {
			t.Errorf("n=%d: p%g leaves fewer than 10 samples beyond it", c.n, 100*q)
		}
	}

	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tail(xs); got != 990 {
		t.Errorf("tail of 1..1000 = %v, want the p99 value 990", got)
	}
	if got := tail(xs[:19]); got != 0 {
		t.Errorf("tail of 19 samples = %v, want 0 (no supported percentile)", got)
	}
}

func TestRegressedBound(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_per_s", Better: "higher", Bound: 0.10}
	floored := metricDef{Name: "setup_s", Better: "lower", Bound: 0.10, Floor: 0.05}
	cases := []struct {
		d         metricDef
		base, cur float64
		want      bool
	}{
		{lower, 100, 110, false}, // exactly the bound passes
		{lower, 100, 110.01, true},
		{lower, 100, 50, false},
		{higher, 100, 90, false},
		{higher, 100, 89.99, true},
		{higher, 100, 150, false},
		{floored, 0.1, 0.149, false}, // 10% of 0.1 s is below the 0.05 s floor
		{floored, 0.1, 0.151, true},
		{floored, 2, 2.19, false}, // above the floor the share governs
		{floored, 2, 2.21, true},
		{failedRatio, 0, 0, false},
		{failedRatio, 0, 1e-9, true}, // any increase
		{failedRatio, 0.01, 0.01, false},
		{failedRatio, 0.01, 0.0100001, true},
		{failedRatio, 0.01, 0, false},
	}
	for _, c := range cases {
		if got := c.d.regressed(c.base, c.cur); got != c.want {
			t.Errorf("%s: regressed(%v, %v) = %v, want %v", c.d.Name, c.base, c.cur, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	ns := func(d time.Duration) int64 { return int64(d) }
	parent := span{Start: 0, End: ns(100 * time.Millisecond)}
	children := []span{
		{Start: ns(50 * time.Millisecond), End: ns(70 * time.Millisecond)},
		{Start: ns(10 * time.Millisecond), End: ns(30 * time.Millisecond)},
		{Start: ns(20 * time.Millisecond), End: ns(40 * time.Millisecond)},  // overlaps the one before
		{Start: ns(90 * time.Millisecond), End: ns(120 * time.Millisecond)}, // runs past the parent
	}
	// Covered: 10–40, 50–70, 90–100 = 60 ms of 100.
	if got := selfTime(parent, children); got != 40*time.Millisecond {
		t.Errorf("selfTime = %v, want 40ms", got)
	}
}
