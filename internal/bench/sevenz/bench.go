package sevenz

import (
	"fmt"
	"strconv"

	"vmdg/internal/cost"
	"vmdg/internal/sim"
)

// Benchmark-mode parameters, mirroring `7z b`: the benchmark compresses
// and decompresses synthetic dictionary data and reports a speed rating.
const (
	// DefaultBlock is the per-iteration input size.
	DefaultBlock = 1 << 20
	// DefaultPasses is how many blocks one benchmark run processes.
	DefaultPasses = 8
)

// longestAppend bounds what one step of GenInput's loop appends: a
// phrase of up to 8+39 bytes. A record takes 13 and noise at most 15.
const longestAppend = 8 + 39

// GenInput produces the benchmark's deterministic, compressible input:
// a blend of repeated phrases (dictionary hits), counter-structured
// records, and incompressible noise — the texture 7z's own benchmark
// generator aims for (moderately compressible data that exercises both
// the match finder and the literal coder).
func GenInput(seed uint64, size int) []byte {
	rng := sim.NewRNG(seed)
	phrases := make([][]byte, 16)
	for i := range phrases {
		p := make([]byte, 8+rng.Intn(40))
		for j := range p {
			p[j] = byte('a' + rng.Intn(26))
		}
		phrases[i] = p
	}
	// The loop stops once out reaches size, so its last append may run
	// past size by up to longestAppend-1 bytes; reserve room for that.
	out := make([]byte, 0, size+longestAppend)
	rec := int64(0)
	for len(out) < size {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // phrase repetition
			out = append(out, phrases[rng.Intn(len(phrases))]...)
		case 5, 6, 7: // structured record
			out = appendRecord(out, rec)
			rec++
		default: // noise
			n := 4 + rng.Intn(12)
			for i := 0; i < n; i++ {
				out = append(out, byte(rng.Uint64()))
			}
		}
	}
	return out[:size]
}

// appendRecord appends what fmt.Sprintf("rec=%08d;", rec) formats, for
// rec >= 0, without building the string.
func appendRecord(out []byte, rec int64) []byte {
	out = append(out, "rec="...)
	for pad := int64(10_000_000); pad > 1 && rec < pad; pad /= 10 {
		out = append(out, '0')
	}
	out = strconv.AppendInt(out, rec, 10)
	return append(out, ';')
}

// Result summarizes one benchmark run.
type Result struct {
	InBytes   int64
	OutBytes  int64
	Counts    cost.Counts // total operation tally (compress + decompress)
	Ratio     float64     // compressed/original
	RoundTrip bool        // decompression verified
}

// Instructions is the instruction count underlying the MIPS metric:
// 7z's rating counts retired instructions, which in this model is the
// total operation tally.
func (r Result) Instructions() float64 {
	c := r.Counts
	return float64(c.IntOps + c.FPOps + c.MemOps + c.KernelOps)
}

// Run executes the real codec over passes blocks of the given size,
// verifying each round trip.
func Run(seed uint64, block, passes int) Result {
	var res Result
	res.RoundTrip = true
	for p := 0; p < passes; p++ {
		src := GenInput(seed+uint64(p), block)
		comp, cc := Compress(src)
		back, dc := Decompress(comp, len(src))
		if string(back) != string(src) {
			res.RoundTrip = false
		}
		res.InBytes += int64(len(src))
		res.OutBytes += int64(len(comp))
		res.Counts.Add(cc)
		res.Counts.Add(dc)
	}
	res.Ratio = float64(res.OutBytes) / float64(res.InBytes)
	return res
}

// Profile captures the benchmark's cost profile for simulator replay: one
// thread's work for the given passes. Every call runs the real codec;
// Profile caches nothing, so a caller that replays one capture many times
// keeps it. MIPS under an environment is Result.Instructions() /
// simulated wall time.
func Profile(seed uint64, block, passes int) (*cost.Profile, Result) {
	res := Run(seed, block, passes)
	m := cost.NewMeter(fmt.Sprintf("7z-b%d-p%d", block, passes))
	// Re-emit the tally pass by pass so the profile has preemption-sized
	// steps rather than one giant block.
	per := res.Counts
	div := func(v uint64) uint64 { return v / uint64(passes) }
	for p := 0; p < passes; p++ {
		m.Ops(cost.Counts{
			IntOps: div(per.IntOps), FPOps: div(per.FPOps),
			MemOps: div(per.MemOps), KernelOps: div(per.KernelOps),
		})
	}
	return m.Profile(), res
}
