package boinc

import (
	"fmt"
	"math"

	"vmdg/internal/cost"
	"vmdg/internal/sim"
)

// fftSize is the per-chunk transform length (2^12 complex points: a
// 64 KB working set, cache-resident like Einstein@home's hot loops).
const fftSize = 1 << 12

// FFT performs an in-place radix-2 decimation-in-time transform of the
// complex signal (re, im). Length must be a power of two.
func FFT(re, im []float64, ops *cost.Counts) {
	n := len(re)
	if n == 0 || n&(n-1) != 0 || len(im) != n {
		panic(fmt.Sprintf("boinc: FFT length %d/%d not a power of two", len(re), len(im)))
	}
	// Bit reversal.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	if ops != nil {
		ops.IntOps += uint64(4 * n)
	}
	// Butterflies.
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wr, wi := math.Cos(ang), math.Sin(ang)
		for start := 0; start < n; start += length {
			cwr, cwi := 1.0, 0.0
			half := length / 2
			for k := 0; k < half; k++ {
				i, j := start+k, start+k+half
				tr := re[j]*cwr - im[j]*cwi
				ti := re[j]*cwi + im[j]*cwr
				re[j], im[j] = re[i]-tr, im[i]-ti
				re[i], im[i] = re[i]+tr, im[i]+ti
				cwr, cwi = cwr*wr-cwi*wi, cwr*wi+cwi*wr
			}
			if ops != nil {
				ops.FPOps += uint64(14 * half)
				// The 64 KB working set is L2-resident; a sliver of the
				// butterfly traffic reaches the shared bus.
				ops.MemOps += uint64(half) / 3
			}
		}
	}
}

// FFTCounts is the closed form of the operations FFT tallies on an n-point
// transform, which depend on n alone: 4n integer ops for the bit
// reversal and, per stage of length L = 2, 4, …, n, n/L butterfly groups
// of L/2 butterflies costing 14 FP ops each and ⌊(L/2)/3⌋ memory ops per
// group. FFT keeps its own tally as the reference. n must be a power of
// two.
func FFTCounts(n int) cost.Counts {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("boinc: FFT length %d not a power of two", n))
	}
	c := cost.Counts{IntOps: uint64(4 * n)}
	for length := 2; length <= n; length <<= 1 {
		groups, half := uint64(n/length), uint64(length/2)
		c.FPOps += groups * 14 * half
		c.MemOps += groups * (half / 3)
	}
	return c
}

// InverseFFT inverts FFT (conjugate method, normalized).
func InverseFFT(re, im []float64, ops *cost.Counts) {
	for i := range im {
		im[i] = -im[i]
	}
	FFT(re, im, ops)
	n := float64(len(re))
	for i := range re {
		re[i] /= n
		im[i] = -im[i] / n
	}
	if ops != nil {
		ops.FPOps += uint64(2 * len(re))
	}
}

// ChunkResult is the outcome of one Einstein compute chunk.
type ChunkResult struct {
	PeakBin   int
	PeakPower float64
	Counts    cost.Counts
}

// chunkCounts is the closed form of EinsteinChunk's Counts: the transform
// plus the synthesis (12n FP, 3n integer, n/4 memory ops) and the peak
// search (3n/2 FP ops). They depend on n alone, so they are identical for
// every seed: 28672 integer, 399360 FP and 7396 memory ops at n = 4096.
func chunkCounts() cost.Counts {
	c := FFTCounts(fftSize)
	c.Add(cost.Counts{
		FPOps:  uint64(12*fftSize + 3*fftSize/2),
		IntOps: uint64(3 * fftSize),
		MemOps: uint64(fftSize) / 4,
	})
	return c
}

// EinsteinChunk runs one analysis chunk: synthesize a strain series with a
// buried periodic signal plus noise, Hann-window it, transform, and locate
// the strongest spectral line. Its Counts equal chunkCounts() for every
// seed; workers replay those, and the chunk itself stays for its peak bin,
// which the project server validates against.
func EinsteinChunk(seed uint64) ChunkResult {
	rng := sim.NewRNG(seed)
	var ops cost.Counts
	re := make([]float64, fftSize)
	im := make([]float64, fftSize)
	// Injected signal frequency: a deterministic bin in (fftSize/16, fftSize/2).
	bin := int(rng.Uint64()%uint64(fftSize/2-fftSize/16)) + fftSize/16
	for i := 0; i < fftSize; i++ {
		noise := rng.Normal(0, 0.3)
		sig := math.Sin(2 * math.Pi * float64(bin) * float64(i) / fftSize)
		w := 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/(fftSize-1))) // Hann
		re[i] = w * (sig + noise)
	}
	ops.FPOps += uint64(12 * fftSize)
	ops.IntOps += uint64(3 * fftSize)
	ops.MemOps += uint64(fftSize) / 4

	FFT(re, im, &ops)

	best, bestP := 0, 0.0
	for k := 1; k < fftSize/2; k++ {
		p := re[k]*re[k] + im[k]*im[k]
		if p > bestP {
			best, bestP = k, p
		}
	}
	ops.FPOps += uint64(3 * fftSize / 2)
	return ChunkResult{PeakBin: best, PeakPower: bestP, Counts: ops}
}
