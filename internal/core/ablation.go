package core

import (
	"fmt"

	"vmdg/internal/boinc"
	"vmdg/internal/cost"
	"vmdg/internal/hostos"
	"vmdg/internal/report"
	"vmdg/internal/sim"
	"vmdg/internal/timesync"
	"vmdg/internal/vmm"
	"vmdg/internal/vmm/profiles"
)

// TimesyncResult quantifies the paper's methodology argument (§2, §4.2.2):
// in-guest timing of a task under host load is badly wrong, and an
// external UDP time reference repairs it.
type TimesyncResult struct {
	TrueSeconds      float64 // simulator ground truth
	GuestSeconds     float64 // measured with the guest's drifting clock
	CorrectedSeconds float64 // guest clock + UDP offset correction
	GuestErr         float64 // |guest − true| / true
	CorrectedErr     float64 // |corrected − true| / true
}

// TimesyncAblation measures one Einstein work unit inside a VmPlayer VM at
// idle priority while the host is CPU-saturated, timing it three ways.
func TimesyncAblation(cfg Config) (*TimesyncResult, error) {
	host := newHost(cfg.Seed)
	prof := profiles.VMwarePlayer()
	vm, err := vmm.New(host, vmm.Config{Prof: prof})
	if err != nil {
		return nil, err
	}
	wu := boinc.WorkUnit{ID: "wu-timing", Seed: cfg.Seed, Chunks: 6000, CheckpointEvery: 0}
	if cfg.Quick {
		wu.Chunks = 2000
	}
	worker := boinc.NewFiniteWorker(boinc.Progress{WorkUnit: wu}, 1)
	vm.SpawnGuest("einstein", worker)

	sock := vm.Kernel.Net.OpenUDP(99)
	client := timesync.NewSimClient(sock, vm, guestExactClock{host})
	vm.PowerOn(hostos.PrioIdle)

	// Record guest/corrected stamps around the unit via harness probes.
	start := &clockStamp{vm: vm, client: client}
	var trueEnd, guestEnd, corrEnd sim.Time

	// Saturate the host with two normal-priority compute hogs so the
	// idle-priority vCPU starves intermittently.
	hog := host.NewProcess("hog")
	hogProg := func() cost.Program {
		return cost.Loop(&cost.Profile{Name: "hog", Steps: []cost.Step{
			{Kind: cost.StepCompute, Cycles: 2.4e8, Mix: cost.Mix{Int: 0.8, Mem: 0.2}},
			{Kind: cost.StepSleep, Dur: 40 * sim.Millisecond},
		}})
	}
	for i := 0; i < 2; i++ {
		host.Spawn(hog, fmt.Sprintf("hog-%d", i), hostos.PrioNormal, hogProg())
	}

	// Periodic UDP sync exchanges, like a measurement daemon.
	host.Sim.Schedule(host.Sim.Now()+5*sim.Millisecond, "timesync-start", &poker{s: host.Sim, client: client})

	// Stamp the start once the VM is warm.
	host.Sim.Schedule(host.Sim.Now()+50*sim.Millisecond, "stamp-start", start)

	deadline := 600 * sim.Second
	for host.Sim.Now() < deadline && !vm.GuestFinished() {
		next, ok := host.Sim.NextEventTime()
		if !ok {
			break
		}
		host.Sim.RunUntil(next)
	}
	if !vm.GuestFinished() {
		return nil, fmt.Errorf("core: timing work unit did not finish")
	}
	trueEnd = host.Sim.Now()
	guestEnd = vm.GuestNow()
	corrEnd = client.Now()
	vm.PowerOff()

	res := &TimesyncResult{
		TrueSeconds:      (trueEnd - start.at).Seconds(),
		GuestSeconds:     (guestEnd - start.guest).Seconds(),
		CorrectedSeconds: (corrEnd - start.corrected).Seconds(),
	}
	res.GuestErr = relErr(res.GuestSeconds, res.TrueSeconds)
	res.CorrectedErr = relErr(res.CorrectedSeconds, res.TrueSeconds)
	return res, nil
}

// poker sends the time client's sync exchange every 50 ms.
type poker struct {
	s      *sim.Simulator
	client *timesync.SimClient
}

// Fire implements sim.Caller.
func (p *poker) Fire(now sim.Time) {
	p.client.Poke()
	p.s.Schedule(now+50*sim.Millisecond, "timesync-poke", p)
}

// clockStamp records the true, guest and corrected clocks when it fires.
type clockStamp struct {
	vm                   *vmm.VM
	client               *timesync.SimClient
	at, guest, corrected sim.Time
}

// Fire implements sim.Caller.
func (c *clockStamp) Fire(now sim.Time) {
	c.at, c.guest, c.corrected = now, c.vm.GuestNow(), c.client.Now()
}

// guestExactClock adapts the host's exact simulator clock to the
// ClockSource interface the sync server needs.
type guestExactClock struct{ host *hostos.OS }

// GuestNow returns exact host time.
func (c guestExactClock) GuestNow() sim.Time { return c.host.Sim.Now() }

func relErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}

// MigrationResult reports the checkpoint/restore ablation (§1: VM state
// saving enables fault tolerance and migration of volunteer tasks).
type MigrationResult struct {
	ChunksBeforeMigration int
	ChunksAfterRestore    int
	UnitCompleted         bool
	CheckpointBytes       int
	OverlayBytes          int64
}

// MigrationAblation runs half an Einstein work unit in a COW-imaged VM on
// machine A, checkpoints it, migrates the encoded checkpoint to machine B,
// restores, and finishes the unit there.
func MigrationAblation(cfg Config) (*MigrationResult, error) {
	prof := profiles.VMwarePlayer()
	wu := boinc.WorkUnit{ID: "wu-mig", Seed: cfg.Seed, Chunks: 400, CheckpointEvery: 50}
	if cfg.Quick {
		wu.Chunks = 120
	}

	// Machine A.
	hostA := newHost(cfg.Seed)
	baseA := vmm.NewRawImage("base", 0, 1<<30)
	cowA := vmm.NewCOWImage("ovl-a", baseA, 2<<30)
	vmA, err := vmm.New(hostA, vmm.Config{Name: "volunteer-a", Prof: prof, Image: cowA})
	if err != nil {
		return nil, err
	}
	workerA := boinc.NewWorker(boinc.Progress{WorkUnit: wu})
	vmA.SpawnGuest("einstein", workerA)
	vmA.PowerOn(hostos.PrioIdle)

	// Run machine A until the worker passes the halfway mark.
	deadline := 600 * sim.Second
	for hostA.Sim.Now() < deadline && workerA.State.ChunksDone < wu.Chunks/2 {
		next, ok := hostA.Sim.NextEventTime()
		if !ok {
			break
		}
		hostA.Sim.RunUntil(next)
	}
	if workerA.State.ChunksDone < wu.Chunks/2 {
		return nil, fmt.Errorf("core: machine A never reached the halfway mark")
	}
	res := &MigrationResult{ChunksBeforeMigration: workerA.State.ChunksDone}

	ck := vmA.Checkpoint(workerA.State.Marshal())
	vmA.PowerOff()
	blob, err := ck.Encode()
	if err != nil {
		return nil, err
	}
	res.CheckpointBytes = len(blob)
	res.OverlayBytes = ck.OverlayBytes

	// Machine B: decode, rebuild, restore, resume.
	ck2, err := vmm.DecodeCheckpoint(blob)
	if err != nil {
		return nil, err
	}
	progress, err := boinc.UnmarshalProgress(ck2.Payload)
	if err != nil {
		return nil, err
	}
	hostB := newHost(cfg.Seed + 1)
	baseB := vmm.NewRawImage("base", 0, 1<<30)
	cowB := vmm.NewCOWImage("ovl-a", baseB, 2<<30)
	vmB, err := vmm.New(hostB, vmm.Config{Name: "volunteer-b", Prof: prof, Image: cowB})
	if err != nil {
		return nil, err
	}
	if err := vmB.Restore(ck2); err != nil {
		return nil, err
	}
	workerB := boinc.NewFiniteWorker(progress, 1)
	vmB.SpawnGuest("einstein", workerB)
	vmB.PowerOn(hostos.PrioIdle)
	if !hostB.RunUntilFinished(vmB.Proc, deadline) {
		return nil, fmt.Errorf("core: machine B did not finish the unit")
	}
	vmB.PowerOff()

	res.ChunksAfterRestore = progress.ChunksDone
	res.UnitCompleted = workerB.UnitsDone() == 1
	return res, nil
}

// MemoryFootprint regenerates the §4.2.1 observation: every environment
// commits exactly its configured guest RAM, constant for the VM's life.
func MemoryFootprint() (*Result, error) {
	fig := &report.Figure{Title: "§4.2.1 — Committed host RAM per environment", Unit: "MB"}
	res := newResult("memory", fig)
	for _, prof := range GuestEnvironments() {
		host := newHost(1)
		vm, err := vmm.New(host, vmm.Config{Prof: prof})
		if err != nil {
			return nil, err
		}
		committed := float64(host.M.Committed()) / (1 << 20)
		res.add(prof.Name, committed, 0)
		vm.PowerOff()
	}
	return res, nil
}
