package vmdg

import (
	"runtime"
	"testing"

	"vmdg/internal/bench/nbench"
	"vmdg/internal/bench/sevenz"
	"vmdg/internal/boinc"
	"vmdg/internal/core"
	"vmdg/internal/cost"
	"vmdg/internal/engine"
	"vmdg/internal/hostos"
	"vmdg/internal/hw"
	"vmdg/internal/sim"
)

// benchCfg runs the figures at full (paper) workload sizes with one
// repetition per point; determinism makes more repetitions redundant
// inside a testing.B loop.
func benchCfg() core.Config { return core.Config{Seed: 1, Reps: 1, Quick: false} }

// benchFigure runs one figure generator per iteration and reports the
// headline values as custom metrics.
func benchFigure(b *testing.B, fn func(core.Config) (*core.Result, error), metrics []string) {
	b.Helper()
	var res *core.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = fn(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range metrics {
		b.ReportMetric(res.Values[m], m)
	}
}

// BenchmarkFigure1 regenerates Figure 1 (7z guest slowdown). Paper:
// vmplayer 1.15×, virtualbox 1.20×, virtualpc 1.36×, qemu ≈2.1×.
func BenchmarkFigure1(b *testing.B) {
	benchFigure(b, core.Figure1, []string{"vmplayer", "virtualbox", "virtualpc", "qemu"})
}

// BenchmarkFigure2 regenerates Figure 2 (Matrix guest slowdown). Paper:
// all < 1.2× except qemu 1.30×.
func BenchmarkFigure2(b *testing.B) {
	benchFigure(b, core.Figure2, []string{"vmplayer", "virtualbox", "virtualpc", "qemu"})
}

// BenchmarkFigure3 regenerates Figure 3 (IOBench guest slowdown). Paper:
// vmplayer 1.3×, virtualbox ≈2×, virtualpc ≈2×, qemu ≈4.9×.
func BenchmarkFigure3(b *testing.B) {
	benchFigure(b, core.Figure3, []string{"vmplayer", "virtualbox", "virtualpc", "qemu"})
}

// BenchmarkFigure4 regenerates Figure 4 (NetBench Mbps). Paper: native
// 97.60, vmplayer 96.02 bridged / 3.68 NAT, qemu 65.91, virtualpc 35.56,
// virtualbox ≈1.3.
func BenchmarkFigure4(b *testing.B) {
	benchFigure(b, core.Figure4, []string{"native", "vmplayer", "vmplayer-nat", "qemu", "virtualpc", "virtualbox"})
}

// BenchmarkFigure5 regenerates Figure 5 (host MEM-index overhead).
// Paper: worst case < 5%.
func BenchmarkFigure5(b *testing.B) {
	benchFigure(b, core.Figure5, []string{"vmplayer", "qemu", "virtualbox", "virtualpc"})
}

// BenchmarkFigure6 regenerates Figure 6 (host INT-index overhead).
// Paper: ≈2% across environments.
func BenchmarkFigure6(b *testing.B) {
	benchFigure(b, core.Figure6, []string{"vmplayer", "qemu", "virtualbox", "virtualpc"})
}

// BenchmarkFigureFP regenerates the FP-index companion the paper
// describes but omits ("practically no overhead").
func BenchmarkFigureFP(b *testing.B) {
	benchFigure(b, core.FigureFP, []string{"vmplayer", "qemu", "virtualbox", "virtualpc"})
}

// BenchmarkFigure7 regenerates Figure 7 (% CPU available to host 7z).
// Paper: no-vm 100/180; vmplayer 120 for two threads; others ≈160.
func BenchmarkFigure7(b *testing.B) {
	benchFigure(b, core.Figure7, []string{"no-vm/2t", "vmplayer/2t", "qemu/2t", "virtualbox/2t", "virtualpc/2t"})
}

// BenchmarkFigure8 regenerates Figure 8 (host 7z MIPS ratio). Paper:
// vmplayer ≈0.70, others ≈0.90 for two threads.
func BenchmarkFigure8(b *testing.B) {
	benchFigure(b, core.Figure8, []string{"vmplayer/2t", "qemu/2t", "virtualbox/2t", "virtualpc/2t"})
}

// BenchmarkAblationTimesync measures the guest-clock error and its UDP
// correction (the §2 methodology ablation).
func BenchmarkAblationTimesync(b *testing.B) {
	var res *core.TimesyncResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.TimesyncAblation(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.GuestErr, "guest-err")
	b.ReportMetric(res.CorrectedErr, "corrected-err")
}

// BenchmarkAblationCheckpoint measures checkpoint/migration round trips.
func BenchmarkAblationCheckpoint(b *testing.B) {
	var res *core.MigrationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.MigrationAblation(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.CheckpointBytes), "ckpt-bytes")
}

// ---- substrate micro-benchmarks (real CPU cost of the machinery) ----

// BenchmarkSimEventThroughput measures raw event-loop throughput.
func BenchmarkSimEventThroughput(b *testing.B) {
	s := sim.New()
	var next func()
	n := 0
	next = func() {
		n++
		if n < b.N {
			s.Schedule(s.Now()+sim.Microsecond, "tick", callFunc(next))
		}
	}
	b.ResetTimer()
	s.Schedule(s.Now(), "start", callFunc(next))
	s.Run()
}

// BenchmarkScheduler measures the host scheduler under a contended
// round-robin load.
func BenchmarkScheduler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.New()
		m, err := hw.NewMachine(s, hw.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		o := hostos.Boot(m)
		p := o.NewProcess("load")
		for t := 0; t < 6; t++ {
			prog := &cost.Profile{Name: "w", Steps: []cost.Step{
				{Kind: cost.StepCompute, Cycles: 2.4e8, Mix: cost.Mix{Int: 0.6, Mem: 0.4}},
			}}
			o.Spawn(p, "w", hostos.PrioNormal, prog.Iter())
		}
		s.Run()
	}
}

// Benchmark7zCompress measures the real codec (capture-path cost).
func Benchmark7zCompress(b *testing.B) {
	src := sevenz.GenInput(1, 1<<20)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sevenz.Compress(src)
	}
}

// BenchmarkEinsteinChunk measures the real FFT worker chunk.
func BenchmarkEinsteinChunk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		boinc.EinsteinChunk(uint64(i))
	}
}

// BenchmarkNBenchSuite measures one pass of all ten real kernels.
func BenchmarkNBenchSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for k := nbench.NumericSort; k <= nbench.LUDecomp; k++ {
			if res := nbench.RunKernel(k, uint64(i)); !res.Check {
				b.Fatalf("%v failed", k)
			}
		}
	}
}

// ---- sensitivity ablations for the calibrated design choices ----

// BenchmarkAblationBusContention sweeps the shared-bus factor behind the
// 180% two-thread ceiling (DESIGN.md §5).
func BenchmarkAblationBusContention(b *testing.B) {
	ks := []float64{0, 0.225, 0.45, 0.675, 0.9}
	var ys []float64
	for i := 0; i < b.N; i++ {
		series, err := core.BusContentionSweep(benchCfg(), ks)
		if err != nil {
			b.Fatal(err)
		}
		ys = series.Lines["no-vm/2t"]
	}
	b.ReportMetric(ys[2], "pct-at-calibrated-K")
}

// BenchmarkAblationServiceDuty sweeps the VMM host-service duty that
// separates VmPlayer's intrusiveness from the others'.
func BenchmarkAblationServiceDuty(b *testing.B) {
	duties := []float64{0.15, 0.30, 0.45, 0.60, 0.68}
	var ys []float64
	for i := 0; i < b.N; i++ {
		series, err := core.ServiceDutySweep(benchCfg(), duties)
		if err != nil {
			b.Fatal(err)
		}
		ys = series.Lines["7z/2t"]
	}
	b.ReportMetric(ys[0], "pct-at-low-duty")
	b.ReportMetric(ys[len(ys)-1], "pct-at-vmplayer-duty")
}

// BenchmarkAblationNATQueue compares the shared NAT proxy queue against
// split per-direction queues with identical per-frame costs.
func BenchmarkAblationNATQueue(b *testing.B) {
	var shared, split float64
	var err error
	for i := 0; i < b.N; i++ {
		shared, split, err = core.NATQueueAblation(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(shared, "shared-Mbps")
	b.ReportMetric(split, "split-Mbps")
}

// BenchmarkMultiVM measures the one-instance-per-core scaling of Csaba et
// al.'s multi-VM deployment (§5).
func BenchmarkMultiVM(b *testing.B) {
	var res *core.MultiVMResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.MultiVMExperiment(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Scaling, "scaling-x")
}

// BenchmarkAblationUDPLoss runs the iperf -u extension: a paced 10 Mbps
// UDP flood through bridged and NAT paths, measuring delivery and loss.
func BenchmarkAblationUDPLoss(b *testing.B) {
	var results []core.UDPLossResult
	var err error
	for i := 0; i < b.N; i++ {
		results, err = core.UDPLossExperiment(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		b.ReportMetric(r.DeliveredMbps, r.Env+"-Mbps")
	}
}

// ---- experiment engine (internal/engine) ----

// engineFigures runs every figure experiment through the engine with the
// given worker count and a fresh cache, reporting shard throughput.
func engineFigures(b *testing.B, workers int) {
	b.Helper()
	cfg := core.Config{Seed: 1, Reps: 2, Quick: true}
	exps := engine.Default.ByKind(engine.KindFigure)
	for i := 0; i < b.N; i++ {
		r := engine.Runner{Workers: workers, Cache: engine.NewMemCache()}
		if _, _, err := r.Run(cfg, exps); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(engine.TotalShards(cfg, exps)), "shards")
}

// BenchmarkEngineFiguresSerial measures the figure set on one worker —
// the baseline for the parallel speedup.
func BenchmarkEngineFiguresSerial(b *testing.B) { engineFigures(b, 1) }

// BenchmarkEngineFiguresParallel measures the same set with one worker
// per core; the ratio to the serial benchmark is the engine's speedup on
// this host.
func BenchmarkEngineFiguresParallel(b *testing.B) { engineFigures(b, runtime.NumCPU()) }

// BenchmarkEngineFiguresCached measures a warm-cache pass: every shard
// is served from the cache and only the merges run.
func BenchmarkEngineFiguresCached(b *testing.B) {
	cfg := core.Config{Seed: 1, Reps: 2, Quick: true}
	exps := engine.Default.ByKind(engine.KindFigure)
	r := engine.Runner{Workers: runtime.NumCPU(), Cache: engine.NewMemCache()}
	if _, _, err := r.Run(cfg, exps); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.Run(cfg, exps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationConfinement measures the affinity negative result:
// aggregate availability is invariant to pinning the VM to one core.
func BenchmarkAblationConfinement(b *testing.B) {
	var res *core.ConfinementResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.ConfinementExperiment(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.UnpinnedPct, "unpinned-pct")
	b.ReportMetric(res.PinnedPct, "pinned-pct")
}

// callFunc adapts a closure to sim.Caller for tests.
type callFunc func()

func (f callFunc) Fire(sim.Time) { f() }
