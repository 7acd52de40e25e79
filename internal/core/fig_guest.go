package core

import (
	"fmt"

	"vmdg/internal/bench/iobench"
	"vmdg/internal/bench/matrix"
	"vmdg/internal/bench/netbench"
	"vmdg/internal/bench/sevenz"
	"vmdg/internal/cost"
	"vmdg/internal/hostos"
	"vmdg/internal/report"
	"vmdg/internal/sim"
	"vmdg/internal/stats"
	"vmdg/internal/vmm"
)

// envAndNative returns the native profile followed by the four guest
// environments — the run set of Figures 1–3.
func envAndNative() []vmm.Profile {
	return append([]vmm.Profile{vmm.Native()}, GuestEnvironments()...)
}

// envWallSeconds runs p once under native and once under each guest
// environment with the given machine seed, returning wall seconds per
// environment name — the raw material of the slowdown-vs-native
// normalization of Figures 1–3.
func envWallSeconds(p *cost.Profile, seed uint64) (ShardPayload, error) {
	out := ShardPayload{}
	for _, prof := range envAndNative() {
		w, err := guestRun(prof, p.Iter(), seed, nil)
		if err != nil {
			return nil, err
		}
		out[prof.Name] = []float64{w.Seconds()}
	}
	return out, nil
}

// Figure captions (paper presentation titles).
const (
	fig1Title = "Figure 1 — Relative performance of 7z on virtual machines"
	fig2Title = "Figure 2 — Relative performance of Matrix on virtual machines"
	fig3Title = "Figure 3 — Relative performance of IOBench on virtual machines"
	fig4Title = "Figure 4 — Absolute performance for NetBench on virtual machines"
)

// ---- Figure 1 — 7z guest slowdown ----

// fig1Workload sizes the 7z benchmark input.
func fig1Workload(cfg Config) (block, passes int) {
	if cfg.Quick {
		return 128 << 10, 1
	}
	return 512 << 10, 2
}

// fig1Shard measures one repetition: the 7z cost profile captured with
// seed Seed+r runs under native and every guest environment on the
// machine seeded Seed+r.
func fig1Shard(cfg Config, r int) (ShardPayload, error) {
	block, passes := fig1Workload(cfg)
	p, run := sevenz.Profile(cfg.Seed+uint64(r), block, passes)
	if !run.RoundTrip {
		return nil, fmt.Errorf("7z codec round trip failed at rep %d", r)
	}
	return envWallSeconds(p, cfg.Seed+uint64(r))
}

// slowdownAssemble builds a Figures 1/2-style slowdown figure: every
// shard holds one native+environments wall set, and each environment's
// bar is the mean ± CI of its per-shard env/native ratios.
func slowdownAssemble(id, title string, shards []ShardPayload) (*Result, error) {
	fig := &report.Figure{Title: title, Unit: "x native", Baseline: 1}
	res := newResult(id, fig)
	res.add("native", 1.0, 0)
	for _, prof := range GuestEnvironments() {
		s := &stats.Sample{}
		for _, sh := range shards {
			nat, err := sh.one("native")
			if err != nil {
				return nil, err
			}
			env, err := sh.one(prof.Name)
			if err != nil {
				return nil, err
			}
			s.Add(env / nat)
		}
		res.add(prof.Name, s.Mean(), s.CI95())
	}
	return res, nil
}

var fig1Def = Sharded{
	ID:     "fig1",
	Title:  fig1Title,
	Shards: func(cfg Config) int { return cfg.reps() },
	Run:    fig1Shard,
	Assemble: func(cfg Config, shards []ShardPayload) (*Result, error) {
		return slowdownAssemble("fig1", fig1Title, shards)
	},
}

// Figure1 regenerates "Relative performance of 7z on virtual machines":
// the real LZ77+range-coder benchmark runs in each guest; bars are wall
// time normalized to native (1.0 = native, bigger = slower).
func Figure1(cfg Config) (*Result, error) { return fig1Def.RunSerial(cfg) }

// ---- Figure 2 — Matrix guest slowdown ----

// fig2Sizes returns the paper's 512² and 1024² multiply sizes, scaled
// down in Quick mode.
func fig2Sizes(cfg Config) []int {
	if cfg.Quick {
		return []int{96, 160}
	}
	return []int{matrix.Small, matrix.Large}
}

// fig2Capture captures the Matrix profile Figure 2 replays; tests swap
// it to hand fig2Shard a product that fails verification.
var fig2Capture = matrix.Profile

// fig2Shard measures one matrix size under native and every guest
// environment. The multiply is deterministic for a size, so environments
// pair on a single capture.
func fig2Shard(cfg Config, i int) (ShardPayload, error) {
	n := fig2Sizes(cfg)[i]
	prof, run := fig2Capture(cfg.Seed, n, 1)
	if !run.Verified {
		return nil, fmt.Errorf("matrix product failed verification at n=%d", n)
	}
	return envWallSeconds(prof, cfg.Seed)
}

var fig2Def = Sharded{
	ID:     "fig2",
	Title:  fig2Title,
	Shards: func(cfg Config) int { return len(fig2Sizes(cfg)) },
	Run:    fig2Shard,
	// Each shard is one matrix size; the bars average the per-size
	// slowdowns per environment.
	Assemble: func(cfg Config, shards []ShardPayload) (*Result, error) {
		return slowdownAssemble("fig2", fig2Title, shards)
	},
}

// Figure2 regenerates "Relative performance of Matrix on virtual
// machines": the naive double-precision matrix multiply at the paper's
// 512² and 1024² sizes (scaled down in Quick mode), normalized to native.
func Figure2(cfg Config) (*Result, error) { return fig2Def.RunSerial(cfg) }

// ---- Figure 3 — IOBench guest slowdown ----

// figure3Sizes is the file-size sweep, trimmed in Quick mode.
func figure3Sizes(cfg Config) []int64 {
	if cfg.Quick {
		return []int64{128 << 10, 1 << 20, 4 << 20}
	}
	return iobench.Sizes()
}

// fig3Shard measures one environment (shard 0 is native) across the
// whole file-size sweep, averaging each size over the repetitions.
func fig3Shard(cfg Config, e int) (ShardPayload, error) {
	prof := envAndNative()[e]
	sizes := figure3Sizes(cfg)
	walls := make([]float64, len(sizes))
	for i, size := range sizes {
		prog := &cost.Profile{Name: "iobench"}
		prog.Steps = append(prog.Steps, iobench.WriteProfile(size).Steps...)
		prog.Steps = append(prog.Steps, iobench.ReadProfile(size).Steps...)
		s := &stats.Sample{}
		for r := 0; r < cfg.reps(); r++ {
			w, err := guestRun(prof, prog.Iter(), cfg.Seed+uint64(r), nil)
			if err != nil {
				return nil, err
			}
			s.Add(w.Seconds())
		}
		walls[i] = s.Mean()
	}
	return ShardPayload{"walls": walls}, nil
}

// fig3Assemble turns the per-environment sweeps into the headline
// whole-sweep slowdown bar plus the per-size detail series.
func fig3Assemble(cfg Config, shards []ShardPayload) (*Result, error) {
	sizes := figure3Sizes(cfg)
	envs := envAndNative()
	wall := map[string][]float64{}
	for e, prof := range envs {
		w, err := shards[e].vec("walls", len(sizes))
		if err != nil {
			return nil, err
		}
		wall[prof.Name] = w
	}

	fig := &report.Figure{Title: fig3Title, Unit: "x native", Baseline: 1}
	res := newResult("fig3", fig)
	res.add("native", 1.0, 0)

	xs := make([]float64, len(sizes))
	for i, s := range sizes {
		xs[i] = float64(s >> 10) // KB
	}
	series := report.NewSeries("IOBench sweep — wall seconds per file size (write+read)", "s", xs)
	series.Set("native", wall["native"])
	var natTotal float64
	for _, w := range wall["native"] {
		natTotal += w
	}
	for _, prof := range GuestEnvironments() {
		series.Set(prof.Name, wall[prof.Name])
		var total float64
		for _, w := range wall[prof.Name] {
			total += w
		}
		res.add(prof.Name, total/natTotal, 0)
	}
	res.Series = series
	return res, nil
}

var fig3Def = Sharded{
	ID:       "fig3",
	Title:    fig3Title,
	Shards:   func(cfg Config) int { return len(envAndNative()) },
	Run:      fig3Shard,
	Assemble: fig3Assemble,
}

// Figure3 regenerates "Relative performance of IOBench on virtual
// machines": write+fsync then drop-caches+read for each file size through
// the guest filesystem and the emulated disk. The bar is the slowdown of
// the whole sweep; the attached Series holds the per-size detail.
func Figure3(cfg Config) (*Result, error) { return fig3Def.RunSerial(cfg) }

// ---- Figure 4 — NetBench throughput ----

// netRun transfers total bytes from a guest under prof to the LAN peer
// and returns the wall time until the last byte is acknowledged (iperf
// measures the full stream, not just the final socket write).
func netRun(prof vmm.Profile, total int64, seed uint64) (sim.Time, error) {
	host := newHost(seed)
	vm, err := vmm.New(host, vmm.Config{Prof: prof})
	if err != nil {
		return 0, err
	}
	conn := vm.Kernel.Net.Dial(netbench.ConnID)
	vm.SpawnGuest("iperf", netbench.Profile(total).Iter())
	vm.PowerOn(hostos.PrioNormal)
	deadline := 3600 * sim.Second
	for host.Sim.Now() < deadline {
		if conn.Drained() && conn.Acked == total {
			break
		}
		next, ok := host.Sim.NextEventTime()
		if !ok || next > deadline {
			break
		}
		host.Sim.RunUntil(next)
	}
	if conn.Acked != total {
		return 0, fmt.Errorf("core: %s acked %d of %d bytes", prof.Name, conn.Acked, total)
	}
	done := host.Sim.Now()
	vm.PowerOff()
	return done, nil
}

// fig4Stream sizes the TCP stream.
func fig4Stream(cfg Config) int64 {
	if cfg.Quick {
		return 2 << 20
	}
	return int64(netbench.StreamBytes)
}

// fig4Shard measures one network environment over every repetition.
func fig4Shard(cfg Config, e int) (ShardPayload, error) {
	prof := NetEnvironments()[e]
	total := fig4Stream(cfg)
	mbps := make([]float64, cfg.reps())
	for r := range mbps {
		w, err := netRun(prof, total, cfg.Seed+uint64(r))
		if err != nil {
			return nil, err
		}
		mbps[r] = netbench.Mbps(total, w)
	}
	return ShardPayload{"mbps": mbps}, nil
}

// fig4Assemble reports mean ± CI Mbps per environment.
func fig4Assemble(cfg Config, shards []ShardPayload) (*Result, error) {
	fig := &report.Figure{Title: fig4Title, Unit: "Mbps"}
	res := newResult("fig4", fig)
	for e, prof := range NetEnvironments() {
		mbps, err := shards[e].vec("mbps", cfg.reps())
		if err != nil {
			return nil, err
		}
		s := &stats.Sample{}
		for _, v := range mbps {
			s.Add(v)
		}
		res.add(prof.Name, s.Mean(), s.CI95())
	}
	return res, nil
}

var fig4Def = Sharded{
	ID:       "fig4",
	Title:    fig4Title,
	Shards:   func(cfg Config) int { return len(NetEnvironments()) },
	Run:      fig4Shard,
	Assemble: fig4Assemble,
}

// Figure4 regenerates "Absolute performance for NetBench on virtual
// machines": a 10 MB TCP stream (iperf-style) from the guest to a LAN
// station; bars are achieved Mbps, absolute (higher is better).
func Figure4(cfg Config) (*Result, error) { return fig4Def.RunSerial(cfg) }
