package loadgen

import (
	"math/bits"
	"time"
)

// The histogram is log-linear, HDR-style: values (latencies in
// nanoseconds) land in 2^histSubBits linear sub-buckets per power of
// two, so recording is one bit-scan and one increment, the memory
// footprint is fixed (~15 KiB), and reconstructed quantiles carry at
// most one sub-bucket of error — a bounded ~3% relative error at any
// magnitude from nanoseconds to hours. Per-client histograms merge by
// element-wise addition, which is what lets hundreds of clients record
// without sharing a lock.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	// Group 0 holds values below histSub verbatim; group g > 0 holds
	// [histSub<<(g-1), histSub<<g) at 1<<(g-1) granularity.
	histGroups = 64 - histSubBits
)

// Hist is a fixed-size log-linear latency histogram. The zero value is
// empty and ready to record. Hist is not safe for concurrent use; give
// each goroutine its own and Merge them.
type Hist struct {
	counts [histGroups][histSub]uint64
	n      uint64
	min    int64 // exact, so quantile tails clamp to observed values
	max    int64
}

// Record adds one observation. Negative durations clamp to zero.
func (h *Hist) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	g, s := histIndex(v)
	h.counts[g][s]++
	h.n++
	if h.n == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of recorded observations.
func (h *Hist) Count() int { return int(h.n) }

// Max reports the largest recorded observation (exact, not bucketed).
func (h *Hist) Max() time.Duration { return time.Duration(h.max) }

// Merge folds o's observations into h.
func (h *Hist) Merge(o *Hist) {
	if o.n == 0 {
		return
	}
	for g := range h.counts {
		for s := range h.counts[g] {
			h.counts[g][s] += o.counts[g][s]
		}
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
}

// Quantile reconstructs the q-quantile (q in [0, 1]) to within one
// sub-bucket, clamped to the exact observed min and max so p0/p100
// never invent values outside the data.
func (h *Hist) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for g := range h.counts {
		for s, c := range h.counts[g] {
			if c == 0 {
				continue
			}
			seen += c
			if seen >= rank {
				v := histValue(g, s)
				if v > h.max {
					v = h.max
				}
				if v < h.min {
					v = h.min
				}
				return time.Duration(v)
			}
		}
	}
	return time.Duration(h.max)
}

// histIndex maps a non-negative value to its (group, sub-bucket) cell.
func histIndex(v int64) (g, s int) {
	if v < histSub {
		return 0, int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // MSB position, >= histSubBits
	return exp - histSubBits + 1, int(v>>uint(exp-histSubBits)) - histSub
}

// histValue is the midpoint of a cell — the reconstruction Quantile
// reports for observations that landed in it.
func histValue(g, s int) int64 {
	if g == 0 {
		return int64(s)
	}
	width := int64(1) << uint(g-1)
	return (histSub+int64(s))*width + width/2
}

// Summary is the wire form of one histogram: the percentile block a
// Report carries per outcome class.
type Summary struct {
	Count int     `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// Summarize renders the histogram's percentile block.
func (h *Hist) Summarize() Summary {
	if h.n == 0 {
		return Summary{}
	}
	return Summary{
		Count: h.Count(),
		P50Ms: ms(h.Quantile(0.50)),
		P90Ms: ms(h.Quantile(0.90)),
		P99Ms: ms(h.Quantile(0.99)),
		MaxMs: ms(h.Max()),
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
