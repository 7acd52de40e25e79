package core

import (
	"fmt"

	"vmdg/internal/bench/nbench"
	"vmdg/internal/boinc"
	"vmdg/internal/cost"
	"vmdg/internal/hostos"
	"vmdg/internal/report"
	"vmdg/internal/sim"
	"vmdg/internal/stats"
	"vmdg/internal/vmm"
)

// warmup lets a freshly powered VM settle into steady state before the
// host benchmark starts.
const warmup = 200 * sim.Millisecond

// hostPrios are the two VM priorities of Figures 5/6/FP, in presentation
// order.
var hostPrios = [...]hostos.Priority{hostos.PrioNormal, hostos.PrioIdle}

// targetKernelCycles stretches each NBench kernel to a duration long
// enough to average over scheduler and service-thread periods.
func targetKernelCycles(quick bool) float64 {
	if quick {
		return 1.2e8 // 50 ms at 2.4 GHz
	}
	return 7.2e8 // 300 ms
}

// vmWithWorker builds a VM from prof on host, running an endless
// Einstein@home worker at 100% virtual CPU, powered on at prio and
// confined to the host cores in the affinity mask (0: unconfined).
func vmWithWorker(host *hostos.OS, prof vmm.Profile, seed uint64, prio hostos.Priority, affinity uint64) (*vmm.VM, error) {
	vm, err := vmm.New(host, vmm.Config{Prof: prof, Affinity: affinity})
	if err != nil {
		return nil, err
	}
	wu := boinc.DefaultWorkUnit("wu-host-impact", seed)
	vm.SpawnGuest("einstein", boinc.NewWorker(boinc.Progress{WorkUnit: wu}))
	vm.PowerOn(prio)
	return vm, nil
}

// runHostBench executes prog as a normal-priority host process and
// returns its wall time. The simulation must already contain whatever
// competing load the scenario calls for.
func runHostBench(host *hostos.OS, prog cost.Program) (sim.Time, error) {
	p := host.NewProcess("bench")
	start := host.Sim.Now()
	host.Spawn(p, "bench", hostos.PrioNormal, prog)
	if !host.RunUntilFinished(p, start+3600*sim.Second) {
		return 0, fmt.Errorf("core: host benchmark did not finish")
	}
	return host.Sim.Now() - start, nil
}

// nbenchKernelProgram sizes kernel k's profile to the target duration.
// Callers go through its memo, nbenchProgram.
func nbenchKernelProgram(k nbench.Kernel, seed uint64, quick bool) (*cost.Profile, error) {
	res := nbench.RunKernel(k, seed)
	if !res.Check {
		return nil, fmt.Errorf("core: nbench %v self-check failed", k)
	}
	iters := int(targetKernelCycles(quick)/res.Counts.Cycles()) + 1
	p, _ := nbench.Profile(k, seed, iters)
	return p, nil
}

// nbenchIndexOverhead measures, for one NBench index, the fractional
// slowdown of the host benchmark caused by a VM running the Einstein
// worker at the given priority: 1 − geomean(rate_withVM / rate_alone).
func nbenchIndexOverhead(cfg Config, idx nbench.Index, prof vmm.Profile, prio hostos.Priority) (float64, error) {
	var ratios []float64
	for _, k := range idx.Members() {
		prog, err := nbenchProgram(k, cfg.Seed, cfg.Quick)
		if err != nil {
			return 0, err
		}
		// Baseline: kernel alone on the host.
		hostA := newHost(cfg.Seed)
		base, err := runHostBench(hostA, prog.Iter())
		if err != nil {
			return 0, err
		}
		// With the VM active.
		hostB := newHost(cfg.Seed)
		vm, err := vmWithWorker(hostB, prof, cfg.Seed, prio, 0)
		if err != nil {
			return 0, err
		}
		hostB.RunFor(warmup)
		with, err := runHostBench(hostB, prog.Iter())
		if err != nil {
			return 0, err
		}
		vm.PowerOff()
		ratios = append(ratios, base.Seconds()/with.Seconds())
	}
	return 1 - stats.GeoMean(ratios), nil
}

// nbenchShard measures one (environment, priority) cell of Figures
// 5/6/FP: the index overhead with the VM at that priority, clamped at
// zero (measurement noise below baseline).
func nbenchShard(cfg Config, idx nbench.Index, shard int) (ShardPayload, error) {
	prof := GuestEnvironments()[shard/len(hostPrios)]
	prio := hostPrios[shard%len(hostPrios)]
	ov, err := nbenchIndexOverhead(cfg, idx, prof, prio)
	if err != nil {
		return nil, err
	}
	if ov < 0 {
		ov = 0
	}
	return ShardPayload{"overhead": {ov}}, nil
}

// nbenchAssemble builds Figures 5/6/FP from the (environment, priority)
// grid: one bar per cell, and the per-environment headline (asserted
// against the paper band) is the worse of the two priorities.
func nbenchAssemble(id, title string, shards []ShardPayload) (*Result, error) {
	fig := &report.Figure{Title: title, Unit: " overhead (fraction)"}
	res := newResult(id, fig)
	for e, prof := range GuestEnvironments() {
		worst := 0.0
		for p, prio := range hostPrios {
			ov, err := shards[e*len(hostPrios)+p].one("overhead")
			if err != nil {
				return nil, err
			}
			res.add(fmt.Sprintf("%s/%s", prof.Name, prio), ov, 0)
			if ov > worst {
				worst = ov
			}
		}
		res.Values[prof.Name] = worst
	}
	return res, nil
}

// nbenchDef builds the Sharded definition for one NBench index figure.
func nbenchDef(id, title string, idx nbench.Index) Sharded {
	return Sharded{
		ID:     id,
		Title:  title,
		Shards: func(Config) int { return len(GuestEnvironments()) * len(hostPrios) },
		Run: func(cfg Config, shard int) (ShardPayload, error) {
			return nbenchShard(cfg, idx, shard)
		},
		Assemble: func(cfg Config, shards []ShardPayload) (*Result, error) {
			return nbenchAssemble(id, title, shards)
		},
	}
}

var (
	fig5Def = nbenchDef("fig5",
		"Figure 5 — Host NBench MEM-index overhead with guest at 100% vCPU",
		nbench.MemIndex)
	fig6Def = nbenchDef("fig6",
		"Figure 6 — Host NBench INT-index overhead with guest at 100% vCPU",
		nbench.IntIndex)
	figFPDef = nbenchDef("figFP",
		"Figure 5b — Host NBench FP-index overhead (plot omitted in paper)",
		nbench.FPIndex)
)

// Figure5 regenerates "Relative performance (MEM index)": host NBench
// memory-index overhead while a guest runs Einstein@home at 100% vCPU.
func Figure5(cfg Config) (*Result, error) { return fig5Def.RunSerial(cfg) }

// Figure6 regenerates "Relative performance (INT index)".
func Figure6(cfg Config) (*Result, error) { return fig6Def.RunSerial(cfg) }

// FigureFP regenerates the FP-index companion the paper describes but
// omits for space ("practically no overhead was observed regarding
// floating point", §4.2.2).
func FigureFP(cfg Config) (*Result, error) { return figFPDef.RunSerial(cfg) }

// sevenzHostRates measures the host 7z benchmark's instruction rate for
// 1 and 2 threads, optionally sharing the machine with a VM confined to
// the host cores in the affinity mask (0: unconfined). It returns
// instructions per second of virtual time, summed over threads.
func sevenzHostRates(cfg Config, prof *vmm.Profile, threads int, affinity uint64) (float64, error) {
	block, passes := 512<<10, 2
	if cfg.Quick {
		block, passes = 256<<10, 1
	}
	p7z, run := sevenzProfile(cfg.Seed, block, passes)
	if !run.RoundTrip {
		return 0, fmt.Errorf("core: 7z round trip failed")
	}
	// Stretch to ≈1 s of single-thread native time so quantum effects
	// average out.
	iters := int(2.4e9/p7z.TotalCycles()) + 1
	instr := run.Instructions() * float64(iters)

	host := newHost(cfg.Seed)
	var vm *vmm.VM
	if prof != nil {
		var err error
		// The paper sets the VM to idle priority for this experiment
		// ("to minimize impact, and reproduce real conditions", §4.2.3).
		vm, err = vmWithWorker(host, *prof, cfg.Seed, hostos.PrioIdle, affinity)
		if err != nil {
			return 0, err
		}
		host.RunFor(warmup)
	}
	bench := host.NewProcess("7z")
	start := host.Sim.Now()
	for i := 0; i < threads; i++ {
		host.Spawn(bench, fmt.Sprintf("7z-t%d", i), hostos.PrioNormal, p7z.Repeat(iters))
	}
	if !host.RunUntilFinished(bench, start+3600*sim.Second) {
		return 0, fmt.Errorf("core: 7z host run did not finish")
	}
	wall := (host.Sim.Now() - start).Seconds()
	if vm != nil {
		vm.PowerOff()
	}
	return instr * float64(threads) / wall, nil
}

// Figures 7 and 8 share one measurement set: the host 7z instruction
// rate for 1 and 2 threads, with no VM and under each environment. The
// shards enumerate it as no-vm/1t, no-vm/2t, then env0/1t, env0/2t, ...
// Both figures carry the same cache scope, so a cached run of one
// supplies every shard of the other.
const hostImpactScope = "hostimpact7z"

// Figure captions (paper presentation titles).
const (
	fig7Title = "Figure 7 — Available % CPU for host OS when guest runs at 100%"
	fig8Title = "Figure 8 — Host 7z MIPS ratio (with VM / without VM)"
)

func hostImpactShards(Config) int { return 2 + 2*len(GuestEnvironments()) }

// hostImpactShard measures one rate cell.
func hostImpactShard(cfg Config, shard int) (ShardPayload, error) {
	threads := shard%2 + 1
	var prof *vmm.Profile
	if shard >= 2 {
		p := GuestEnvironments()[(shard-2)/2]
		prof = &p
	}
	rate, err := sevenzHostRates(cfg, prof, threads, 0)
	if err != nil {
		return nil, err
	}
	return ShardPayload{"rate": {rate}}, nil
}

// hostImpactRates unpacks the shard grid into base rates and
// per-environment rates.
func hostImpactRates(shards []ShardPayload) (base1t, base2t float64, env1t, env2t map[string]float64, err error) {
	if base1t, err = shards[0].one("rate"); err != nil {
		return
	}
	if base2t, err = shards[1].one("rate"); err != nil {
		return
	}
	env1t, env2t = map[string]float64{}, map[string]float64{}
	for e, prof := range GuestEnvironments() {
		if env1t[prof.Name], err = shards[2+2*e].one("rate"); err != nil {
			return
		}
		if env2t[prof.Name], err = shards[3+2*e].one("rate"); err != nil {
			return
		}
	}
	return
}

// fig7Assemble reports the 7z benchmark's effective CPU percentage (its
// aggregate instruction rate relative to a single unloaded thread).
func fig7Assemble(cfg Config, shards []ShardPayload) (*Result, error) {
	base1t, base2t, env1t, env2t, err := hostImpactRates(shards)
	if err != nil {
		return nil, err
	}
	fig := &report.Figure{Title: fig7Title, Unit: "% CPU"}
	res := newResult("fig7", fig)
	res.add("no-vm/1t", 100*base1t/base1t, 0)
	res.add("no-vm/2t", 100*base2t/base1t, 0)
	for _, prof := range GuestEnvironments() {
		res.add(prof.Name+"/1t", 100*env1t[prof.Name]/base1t, 0)
		res.add(prof.Name+"/2t", 100*env2t[prof.Name]/base1t, 0)
	}
	return res, nil
}

// fig8Assemble reports the ratio of the host benchmark's MIPS with a VM
// present to the same execution without one.
func fig8Assemble(cfg Config, shards []ShardPayload) (*Result, error) {
	base1t, base2t, env1t, env2t, err := hostImpactRates(shards)
	if err != nil {
		return nil, err
	}
	fig := &report.Figure{Title: fig8Title, Unit: " ratio", Baseline: 1}
	res := newResult("fig8", fig)
	for _, prof := range GuestEnvironments() {
		res.add(prof.Name+"/1t", env1t[prof.Name]/base1t, 0)
		res.add(prof.Name+"/2t", env2t[prof.Name]/base2t, 0)
	}
	return res, nil
}

var fig7Def = Sharded{
	ID:       "fig7",
	Title:    fig7Title,
	Scope:    hostImpactScope,
	Shards:   hostImpactShards,
	Run:      hostImpactShard,
	Assemble: fig7Assemble,
}

var fig8Def = Sharded{
	ID:       "fig8",
	Title:    fig8Title,
	Scope:    hostImpactScope,
	Shards:   hostImpactShards,
	Run:      hostImpactShard,
	Assemble: fig8Assemble,
}

// Figure7 regenerates "Available % CPU for host OS when guest OS is
// running at 100%".
func Figure7(cfg Config) (*Result, error) { return fig7Def.RunSerial(cfg) }

// Figure8 regenerates "MIPS for 7z when guest OS is running at 100%".
func Figure8(cfg Config) (*Result, error) { return fig8Def.RunSerial(cfg) }
