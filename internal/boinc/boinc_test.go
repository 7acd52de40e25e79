package boinc

import (
	"math"
	"testing"
	"testing/quick"

	"vmdg/internal/cost"
	"vmdg/internal/sim"
)

func TestFFTKnownSine(t *testing.T) {
	n := 1024
	re := make([]float64, n)
	im := make([]float64, n)
	bin := 37
	for i := 0; i < n; i++ {
		re[i] = math.Sin(2 * math.Pi * float64(bin) * float64(i) / float64(n))
	}
	FFT(re, im, nil)
	// Energy must concentrate at ±bin with magnitude n/2.
	mag := math.Hypot(re[bin], im[bin])
	if math.Abs(mag-float64(n)/2) > 1e-6 {
		t.Fatalf("peak magnitude = %v, want %v", mag, float64(n)/2)
	}
	for k := 1; k < n/2; k++ {
		if k == bin {
			continue
		}
		if m := math.Hypot(re[k], im[k]); m > 1e-6 {
			t.Fatalf("leakage at bin %d: %v", k, m)
		}
	}
}

func TestFFTInverseRoundTrip(t *testing.T) {
	rng := sim.NewRNG(1)
	n := 512
	re := make([]float64, n)
	im := make([]float64, n)
	orig := make([]float64, n)
	for i := range re {
		re[i] = rng.Float64()*2 - 1
		orig[i] = re[i]
	}
	FFT(re, im, nil)
	InverseFFT(re, im, nil)
	for i := range re {
		if math.Abs(re[i]-orig[i]) > 1e-9 {
			t.Fatalf("round trip error at %d: %v vs %v", i, re[i], orig[i])
		}
		if math.Abs(im[i]) > 1e-9 {
			t.Fatalf("imaginary residue at %d: %v", i, im[i])
		}
	}
}

func TestFFTParsevalProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := sim.NewRNG(uint64(seed))
		n := 256
		re := make([]float64, n)
		im := make([]float64, n)
		var timeE float64
		for i := range re {
			re[i] = rng.Float64() - 0.5
			timeE += re[i] * re[i]
		}
		FFT(re, im, nil)
		var freqE float64
		for i := range re {
			freqE += re[i]*re[i] + im[i]*im[i]
		}
		return math.Abs(freqE/float64(n)-timeE) < 1e-9*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for length 100")
		}
	}()
	FFT(make([]float64, 100), make([]float64, 100), nil)
}

// TestFFTCountsMatchFFT pins the closed form to the tally FFT keeps while
// it transforms, at every power of two up to 16384.
func TestFFTCountsMatchFFT(t *testing.T) {
	for n := 1; n <= 1<<14; n <<= 1 {
		var got cost.Counts
		FFT(make([]float64, n), make([]float64, n), &got)
		if want := FFTCounts(n); got != want {
			t.Fatalf("n=%d: FFT tallied %+v, FFTCounts gives %+v", n, got, want)
		}
	}
	for _, n := range []int{0, 3, 100, -4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("FFTCounts(%d) did not panic", n)
				}
			}()
			FFTCounts(n)
		}()
	}
}

// TestChunkCountsMatchEinsteinChunk: the counts every worker replays equal
// what a real chunk tallies, whatever its seed.
func TestChunkCountsMatchEinsteinChunk(t *testing.T) {
	want := cost.Counts{IntOps: 28672, FPOps: 399360, MemOps: 7396}
	if got := chunkCounts(); got != want {
		t.Fatalf("chunkCounts() = %+v, want %+v", got, want)
	}
	for _, seed := range []uint64{0, 1, 2, 3, 42, 1 << 63, math.MaxUint64} {
		if got := EinsteinChunk(seed).Counts; got != want {
			t.Fatalf("seed %d: EinsteinChunk tallied %+v, chunkCounts gives %+v", seed, got, want)
		}
	}
}

func TestEinsteinChunkFindsInjectedSignal(t *testing.T) {
	// The injected line sits at a deterministic bin; the peak search must
	// find it despite the noise floor.
	for seed := uint64(0); seed < 10; seed++ {
		res := EinsteinChunk(seed)
		if res.PeakPower <= 0 {
			t.Fatalf("seed %d: no peak", seed)
		}
		if res.PeakBin < fftSize/16 || res.PeakBin >= fftSize/2 {
			t.Fatalf("seed %d: peak at %d outside injection range", seed, res.PeakBin)
		}
		if res.Counts.FPOps == 0 {
			t.Fatal("no FP work counted")
		}
	}
}

func TestEinsteinMixIsFPHeavyBusLight(t *testing.T) {
	// The paper's <5% MEM-index impact (Fig. 5) requires the Einstein
	// worker to be bus-light; guard the calibration band.
	res := EinsteinChunk(3)
	mix := res.Counts.Mix()
	if mix.FP < 0.5 {
		t.Fatalf("FP share %.3f, want ≥0.5", mix.FP)
	}
	if mix.Mem > 0.20 {
		t.Fatalf("Mem share %.3f, want ≤0.20", mix.Mem)
	}
}

func TestProgressMarshalRoundTrip(t *testing.T) {
	p := Progress{WorkUnit: DefaultWorkUnit("wu-1", 7), ChunksDone: 123, BestPeak: 4.5}
	back, err := UnmarshalProgress(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back != p {
		t.Fatalf("round trip: %+v vs %+v", back, p)
	}
	if _, err := UnmarshalProgress([]byte("not-json")); err == nil {
		t.Fatal("bad payload accepted")
	}
}

func TestWorkerStepStream(t *testing.T) {
	wu := WorkUnit{ID: "t", Seed: 1, Chunks: 10, CheckpointEvery: 4}
	w := NewWorker(Progress{WorkUnit: wu})
	var computes, writes, syncs int
	for i := 0; i < 100; i++ {
		st, ok := w.Next()
		if !ok {
			t.Fatal("endless worker terminated")
		}
		switch st.Kind {
		case cost.StepCompute:
			computes++
		case cost.StepDiskWrite:
			writes++
		case cost.StepDiskSync:
			syncs++
		default:
			t.Fatalf("unexpected step %v", st.Kind)
		}
	}
	if computes == 0 || writes == 0 || syncs != writes {
		t.Fatalf("stream shape: %d computes, %d writes, %d syncs", computes, writes, syncs)
	}
	// Checkpoints every 4 chunks: writes ≈ computes/4.
	if writes < computes/5 || writes > computes/3 {
		t.Fatalf("checkpoint cadence off: %d writes for %d computes", writes, computes)
	}
}

func TestWorkerCountsUnits(t *testing.T) {
	wu := WorkUnit{ID: "t", Seed: 1, Chunks: 5, CheckpointEvery: 0}
	w := NewWorker(Progress{WorkUnit: wu})
	for i := 0; i < 5*3; i++ {
		w.Next()
	}
	if w.UnitsDone() != 3 {
		t.Fatalf("units done = %d, want 3", w.UnitsDone())
	}
	if w.State.WorkUnit.Seed != 4 || w.State.ChunksDone != 0 {
		t.Fatalf("after 3 units the worker holds %+v, want a fresh unit with seed 4", w.State)
	}
}

func TestWorkerResumeFromProgress(t *testing.T) {
	wu := WorkUnit{ID: "t", Seed: 1, Chunks: 10, CheckpointEvery: 0}
	w := NewWorker(Progress{WorkUnit: wu, ChunksDone: 8})
	// Two chunks remain in the current unit.
	steps := 0
	for w.UnitsDone() == 0 {
		w.Next()
		steps++
	}
	if steps != 2 {
		t.Fatalf("resumed worker took %d chunks to finish, want 2", steps)
	}
}

func TestFiniteWorkerTerminates(t *testing.T) {
	wu := WorkUnit{ID: "t", Seed: 1, Chunks: 4, CheckpointEvery: 2}
	f := NewFiniteWorker(Progress{WorkUnit: wu}, 2)
	n := 0
	for {
		_, ok := f.Next()
		if !ok {
			break
		}
		n++
		if n > 1000 {
			t.Fatal("finite worker never terminated")
		}
	}
	if f.UnitsDone() != 2 {
		t.Fatalf("units = %d", f.UnitsDone())
	}
}

func TestNewWorkerRejectsEmptyUnit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty work unit")
		}
	}()
	NewWorker(Progress{})
}

func TestEstimateUnitSeconds(t *testing.T) {
	wu := DefaultWorkUnit("wu", 1)
	s := EstimateUnitSeconds(wu, 2.4e9)
	if s <= 0 || s > 3600 {
		t.Fatalf("estimate = %vs", s)
	}
}
