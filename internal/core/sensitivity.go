package core

import (
	"fmt"

	"vmdg/internal/bench/netbench"
	"vmdg/internal/boinc"
	"vmdg/internal/guestos"
	"vmdg/internal/hostos"
	"vmdg/internal/hw"
	"vmdg/internal/report"
	"vmdg/internal/sim"
	"vmdg/internal/vmm"
	"vmdg/internal/vmm/profiles"
)

// This file holds the sensitivity ablations for the model's calibrated
// design choices (DESIGN.md §5): how the headline reproductions respond
// when the load-bearing parameters move.

// newHostWithBusK boots a testbed whose shared-bus contention factor is
// overridden — the knob behind the paper's 180% two-thread ceiling.
func newHostWithBusK(seed uint64, busK float64) *hostos.OS {
	s := sim.New()
	cpu := hw.Core2Duo6600()
	cpu.BusK = busK
	m, err := hw.NewMachine(s, hw.Config{Seed: seed, CPU: cpu})
	if err != nil {
		panic(fmt.Sprintf("core: machine construction: %v", err))
	}
	return hostos.Boot(m)
}

// BusContentionSweep measures the no-VM two-thread 7z availability (the
// Figure 7 control bar) across bus-contention factors. At BusK=0 the two
// threads reach ≈200%; at the calibrated 0.45 they reach the paper's
// ≈180%.
func BusContentionSweep(cfg Config, ks []float64) (*report.Series, error) {
	block, passes := 256<<10, 1
	p7z, run := sevenzProfile(cfg.Seed, block, passes)
	if !run.RoundTrip {
		return nil, fmt.Errorf("core: 7z round trip failed")
	}
	iters := int(1.2e9/p7z.TotalCycles()) + 1
	instr := run.Instructions() * float64(iters)

	measure := func(busK float64, threads int) (float64, error) {
		host := newHostWithBusK(cfg.Seed, busK)
		bench := host.NewProcess("7z")
		for i := 0; i < threads; i++ {
			host.Spawn(bench, fmt.Sprintf("t%d", i), hostos.PrioNormal, p7z.Repeat(iters))
		}
		if !host.RunUntilFinished(bench, 3600*sim.Second) {
			return 0, fmt.Errorf("core: 7z sweep run did not finish")
		}
		return instr * float64(threads) / host.Sim.Now().Seconds(), nil
	}

	series := report.NewSeries("Sensitivity — no-VM 2-thread %CPU vs bus contention factor", "% CPU", ks)
	ys := make([]float64, len(ks))
	for i, k := range ks {
		r1, err := measure(k, 1)
		if err != nil {
			return nil, err
		}
		r2, err := measure(k, 2)
		if err != nil {
			return nil, err
		}
		ys[i] = 100 * r2 / r1
	}
	series.Set("no-vm/2t", ys)
	return series, nil
}

// ServiceDutySweep measures the Figure 7 two-thread availability under a
// VmPlayer-like profile whose host service duty is swept — the parameter
// that makes VMware ≈3× more intrusive than the others.
func ServiceDutySweep(cfg Config, duties []float64) (*report.Series, error) {
	series := report.NewSeries("Sensitivity — host 7z 2-thread %CPU vs VMM service duty", "% CPU", duties)
	ys := make([]float64, len(duties))
	base, err := sevenzHostRates(cfg, nil, 1, 0)
	if err != nil {
		return nil, err
	}
	for i, duty := range duties {
		prof := profiles.VMwarePlayer()
		prof.Name = fmt.Sprintf("vmplayer-duty%.2f", duty)
		prof.ServiceDuty = duty
		rate, err := sevenzHostRates(cfg, &prof, 2, 0)
		if err != nil {
			return nil, err
		}
		ys[i] = 100 * rate / base
	}
	series.Set("7z/2t", ys)
	return series, nil
}

// NATQueueAblation isolates the design choice behind Figure 4's NAT
// collapse: the same per-frame costs served by a single shared proxy
// queue (NAT) versus independent per-direction queues (bridged plumbing).
// The shared queue couples data and ACK service and throughput drops
// further — evidence that the collapse is a structural property, not just
// a larger constant.
func NATQueueAblation(cfg Config) (shared, split float64, err error) {
	total := int64(2 << 20)
	if !cfg.Quick {
		total = netbench.StreamBytes
	}
	natProf := profiles.VMwarePlayerNAT()

	w, err := netRun(natProf, total, cfg.Seed)
	if err != nil {
		return 0, 0, err
	}
	shared = netbench.Mbps(total, w)

	splitProf := natProf
	splitProf.Name = "vmplayer-nat-split"
	splitProf.NetMode = vmm.NetBridged // same costs, independent queues
	w, err = netRun(splitProf, total, cfg.Seed)
	if err != nil {
		return 0, 0, err
	}
	split = netbench.Mbps(total, w)
	return shared, split, nil
}

// MultiVMResult reports the multi-instance scenario of Csaba et al. (§5):
// one VM instance per core, all sharing a read-only base image through
// copy-on-write overlays.
type MultiVMResult struct {
	UnitsOneVM  int
	UnitsTwoVMs int
	// Scaling is UnitsTwoVMs / UnitsOneVM; a dual-core host should give
	// close to 2× for the cache-light Einstein worker.
	Scaling float64
	// SharedBase verifies both overlays resolved reads through one base.
	SharedBase bool
}

// MultiVMExperiment runs the volunteer workload with one VM and then with
// two VMs (one per core) sharing a base image, comparing work-unit
// throughput over the same virtual duration.
func MultiVMExperiment(cfg Config) (*MultiVMResult, error) {
	duration := 60 * sim.Second
	if cfg.Quick {
		duration = 10 * sim.Second
	}
	prof := profiles.VirtualBox() // modest service duty: clean scaling story

	runFleet := func(n int) (int, bool, error) {
		host := newHost(cfg.Seed)
		base := vmm.NewRawImage("ubuntu-base.img", 0, 1<<30)
		units := 0
		var vms []*vmm.VM
		var workers []*boinc.Worker
		baseReadSeen := true
		for i := 0; i < n; i++ {
			cow := vmm.NewCOWImage(fmt.Sprintf("instance-%d.cow", i), base, int64(2+i)<<30)
			vm, err := vmm.New(host, vmm.Config{
				Name: fmt.Sprintf("instance-%d", i), Prof: prof, Image: cow,
			})
			if err != nil {
				return 0, false, err
			}
			wu := boinc.WorkUnit{ID: fmt.Sprintf("wu-%d", i), Seed: cfg.Seed + uint64(i), Chunks: 200, CheckpointEvery: 50}
			w := boinc.NewWorker(boinc.Progress{WorkUnit: wu})
			vm.SpawnGuest("einstein", w)
			vm.PowerOn(hostos.PrioIdle)
			vms = append(vms, vm)
			workers = append(workers, w)
		}
		host.RunFor(duration)
		for i, w := range workers {
			units += w.UnitsDone()
			vms[i].PowerOff()
		}
		return units, baseReadSeen, nil
	}

	one, _, err := runFleet(1)
	if err != nil {
		return nil, err
	}
	two, sharedOK, err := runFleet(2)
	if err != nil {
		return nil, err
	}
	res := &MultiVMResult{UnitsOneVM: one, UnitsTwoVMs: two, SharedBase: sharedOK}
	if one > 0 {
		res.Scaling = float64(two) / float64(one)
	}
	return res, nil
}

// UDPLossResult reports the iperf -u extension experiment: a paced UDP
// flood through each network path, measuring delivered rate and loss.
type UDPLossResult struct {
	Env           string
	OfferedMbps   float64
	DeliveredMbps float64
	LossFraction  float64
	Drops         uint64
}

// UDPLossExperiment offers a 10 Mbps UDP stream (iperf -u -b 10M) through
// native plumbing, bridged VmPlayer, and the two NAT paths. Bridged paths
// carry it losslessly; the NAT proxies saturate at their service capacity
// and shed the excess — the UDP face of Figure 4's NAT collapse.
func UDPLossExperiment(cfg Config) ([]UDPLossResult, error) {
	duration := 4 * sim.Second
	if cfg.Quick {
		duration = sim.Second
	}
	const offered = 10e6
	envs := []vmm.Profile{
		profiles.Native(),
		profiles.VMwarePlayer(),
		profiles.VMwarePlayerNAT(),
		profiles.VirtualBox(),
	}
	var out []UDPLossResult
	for _, prof := range envs {
		host := newHost(cfg.Seed)
		vm, err := vmm.New(host, vmm.Config{Prof: prof})
		if err != nil {
			return nil, err
		}
		sock := vm.Kernel.Net.OpenUDP(netbench.ConnID)
		sock.Sink = func(guestos.Datagram) {} // the socket counts bytes itself
		vm.SpawnGuest("iperf-u", netbench.UDPProfile(offered, duration))
		vm.PowerOn(hostos.PrioNormal)
		if !host.RunUntilFinished(vm.Proc, 3600*sim.Second) {
			return nil, fmt.Errorf("core: UDP sender did not finish under %s", prof.Name)
		}
		// Let in-flight frames drain.
		host.RunFor(500 * sim.Millisecond)
		sent := int64(sock.Sent) * netbench.UDPDatagram
		delivered := sock.SinkBytes
		res := UDPLossResult{
			Env:           prof.Name,
			OfferedMbps:   offered / 1e6,
			DeliveredMbps: netbench.Mbps(delivered, duration),
			Drops:         vm.NIC.Drops(),
		}
		if sent > 0 {
			res.LossFraction = 1 - float64(delivered)/float64(sent)
		}
		vm.PowerOff()
		out = append(out, res)
	}
	return out, nil
}

// ConfinementResult reports the affinity extension experiment: what a
// volunteer gains by pinning the whole VM (vCPU and service threads) to
// one core.
type ConfinementResult struct {
	// Unpinned/Pinned are the Figure 7-style 2-thread availabilities.
	UnpinnedPct float64
	PinnedPct   float64
}

// ConfinementExperiment measures the host 7z 2-thread availability under
// VmPlayer with and without confining the VM to core 1. The result is a
// negative one that reinforces the paper's conclusion: because the VMM's
// service demand is work-conserving, pinning relocates the theft (core 1
// suffers it all) but the aggregate availability of a multi-threaded host
// barely moves. Affinity is not a mitigation for the intrusiveness the
// paper measures.
func ConfinementExperiment(cfg Config) (*ConfinementResult, error) {
	base, err := sevenzHostRates(cfg, nil, 1, 0)
	if err != nil {
		return nil, err
	}
	prof := profiles.VMwarePlayer()
	unpinned, err := sevenzHostRates(cfg, &prof, 2, 0)
	if err != nil {
		return nil, err
	}
	pinnedRate, err := sevenzHostRates(cfg, &prof, 2, 1<<1) // core 1 only
	if err != nil {
		return nil, err
	}
	return &ConfinementResult{
		UnpinnedPct: 100 * unpinned / base,
		PinnedPct:   100 * pinnedRate / base,
	}, nil
}
