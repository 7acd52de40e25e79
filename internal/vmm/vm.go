package vmm

import (
	"fmt"

	"vmdg/internal/cost"
	"vmdg/internal/guestos"
	"vmdg/internal/hostos"
	"vmdg/internal/sim"
)

// defaultImageSize is the virtual disk capacity when the caller does not
// supply an image (a small Ubuntu image, per the paper's setup).
const defaultImageSize = 4 << 30

// VM is one powered system-level virtual machine: a guest kernel, its
// emulated devices, the vCPU host thread that executes the transformed
// guest instruction stream, and the VMM's host-side service threads.
type VM struct {
	Name string
	Prof Profile

	hostOS *hostos.OS

	// Kernel is the guest operating system running inside this VM.
	Kernel *guestos.Kernel
	// Proc holds the vCPU thread; it finishes when the guest workload
	// does (or at PowerOff).
	Proc *hostos.Process
	// SvcProc holds the VMM's host-side service threads.
	SvcProc *hostos.Process

	// Disk and NIC are the emulated devices; Image backs Disk.
	Disk  *VirtualDisk
	NIC   *VirtualNIC
	Image Image

	vcpu *hostos.Thread
	// halted is true while the vCPU is parked on a halt step taken at
	// haltStart; wakeVCPU and PowerOff unblock it and add the span to
	// haltedTotal.
	halted      bool
	haltStart   sim.Time
	haltedTotal sim.Time
	pendingEmu  float64
	poweredOff  bool
	startTime   sim.Time
	ramHeld     int64
	affinity    uint64

	// EmulationCycles counts device-emulation work executed on the vCPU.
	EmulationCycles float64
}

// Config parameterizes VM construction.
type Config struct {
	Name string
	Prof Profile
	// Image backs the virtual disk; nil allocates a raw image at host-disk
	// offset 0.
	Image Image
	// Affinity, if non-zero, confines the VM's threads (vCPU and service)
	// to the given core mask — how a volunteer caps a VM's footprint.
	Affinity uint64
}

// New builds a VM on the given host OS. The VM is constructed powered off;
// add guest threads via SpawnGuest and call PowerOn.
func New(host *hostos.OS, cfg Config) (*VM, error) {
	if err := cfg.Prof.Validate(); err != nil {
		return nil, err
	}
	if cfg.Name == "" {
		cfg.Name = cfg.Prof.Name
	}
	vm := &VM{Name: cfg.Name, Prof: cfg.Prof, hostOS: host, affinity: cfg.Affinity}
	if cfg.Prof.RAMBytes > 0 {
		if err := host.M.Commit(cfg.Prof.RAMBytes); err != nil {
			return nil, fmt.Errorf("vmm: powering %s: %w", cfg.Name, err)
		}
		vm.ramHeld = cfg.Prof.RAMBytes
	}
	vm.Image = cfg.Image
	if vm.Image == nil {
		vm.Image = NewRawImage(cfg.Name+".img", 0, defaultImageSize)
	}
	vm.Disk = newVirtualDisk(vm, vm.Image, host.M.Disk)
	vm.NIC = newVirtualNIC(vm, host.M.TX, host.M.RX)
	vm.Kernel = guestos.NewKernel(guestos.KernelConfig{
		Sim:   host.Sim,
		Disk:  vm.Disk,
		NIC:   vm.NIC,
		Clock: vm,
	})
	return vm, nil
}

// SpawnGuest adds a guest thread executing prog inside the VM.
func (vm *VM) SpawnGuest(name string, prog cost.Program) *guestos.GThread {
	return vm.Kernel.SpawnG(name, prog)
}

// chargeEmulation queues host cycles of device-emulation work onto the
// vCPU's stream (trap-and-emulate work happens in the guest's context).
func (vm *VM) chargeEmulation(cycles float64) {
	if cycles > 0 {
		vm.pendingEmu += cycles
	}
}

// vcpuProgram adapts the guest kernel's stream into host work.
type vcpuProgram struct{ vm *VM }

// Next implements cost.Program.
func (p *vcpuProgram) Next() (cost.Step, bool) {
	vm := p.vm
	for {
		if vm.poweredOff {
			return cost.Step{}, false
		}
		if vm.pendingEmu > 0 {
			cy := vm.pendingEmu
			vm.pendingEmu = 0
			vm.EmulationCycles += cy
			return cost.Step{Kind: cost.StepCompute, Cycles: cy, Mix: EmuMix}, true
		}
		st, ok := vm.Kernel.Next()
		if !ok {
			return cost.Step{}, false // guest workload complete
		}
		switch st.Kind {
		case cost.StepCompute:
			return vm.Prof.ExpandStep(st), true
		case cost.StepHalt:
			// hostos parks the vCPU on this step until wakeVCPU or
			// PowerOff unblocks it.
			vm.halted = true
			vm.haltStart = vm.hostOS.Sim.Now()
			return st, true
		default:
			panic(fmt.Sprintf("vmm: guest kernel leaked raw step %v", st.Kind))
		}
	}
}

// PowerOn starts the vCPU at the given host priority (the paper tests
// Normal and Idle) plus the profile's service threads at above-normal
// priority, which is the point: the VMM's kernel-side components do not
// inherit the priority a volunteer assigns to the VM.
func (vm *VM) PowerOn(prio hostos.Priority) {
	if vm.vcpu != nil {
		panic("vmm: PowerOn on a running VM")
	}
	vm.startTime = vm.hostOS.Sim.Now()
	vm.Proc = vm.hostOS.NewProcess("vm:" + vm.Name)
	vm.Kernel.SetWake(vm.wakeVCPU)
	vm.vcpu = vm.hostOS.Spawn(vm.Proc, vm.Name+"/vcpu", prio, &vcpuProgram{vm: vm})
	vm.vcpu.Affinity = vm.affinity

	if vm.Prof.ServiceDuty > 0 {
		vm.SvcProc = vm.hostOS.NewProcess("vmm-svc:" + vm.Name)
		burst := vm.Prof.ServiceDuty * vm.Prof.ServicePeriod.Seconds() * vm.hostOS.M.CPU.FreqHz
		idle := sim.Time(float64(vm.Prof.ServicePeriod) * (1 - vm.Prof.ServiceDuty))
		svc := &serviceProgram{vm: vm, burst: burst, mix: vm.Prof.ServiceMix, idle: idle}
		th := vm.hostOS.Spawn(vm.SvcProc, vm.Name+"/svc", hostos.PrioAboveNormal, svc)
		th.Affinity = vm.affinity
		// Service work displaces the VM it serves when possible: it
		// borrows the vCPU's core from its first wake on.
		th.Victim = vm.vcpu
	}
}

// wakeVCPU resumes a halted vCPU when a guest interrupt arrives.
func (vm *VM) wakeVCPU() {
	if !vm.halted || vm.poweredOff {
		return
	}
	vm.halted = false
	vm.haltedTotal += vm.hostOS.Sim.Now() - vm.haltStart
	vm.hostOS.Unblock(vm.vcpu)
}

// PowerOff stops the vCPU and service threads and releases guest RAM.
// In-flight device operations drain naturally.
func (vm *VM) PowerOff() {
	if vm.poweredOff {
		return
	}
	vm.poweredOff = true
	if vm.halted {
		vm.halted = false
		vm.haltedTotal += vm.hostOS.Sim.Now() - vm.haltStart
		vm.hostOS.Unblock(vm.vcpu) // resumes, sees poweredOff, exits
	}
	if vm.ramHeld > 0 {
		vm.hostOS.M.Release(vm.ramHeld)
		vm.ramHeld = 0
	}
}

// GuestFinished reports whether every guest thread has exited.
func (vm *VM) GuestFinished() bool { return vm.Kernel.AllFinished() }

// VCPU exposes the vCPU thread for experiment accounting.
func (vm *VM) VCPU() *hostos.Thread { return vm.vcpu }

// GuestNow implements guestos.ClockSource with tick-loss drift: virtual
// time the vCPU spent neither scheduled nor intentionally halted is time
// during which timer ticks were lost; the guest clock lags by TickLoss of
// it. With an unloaded host this is ≈ 0; under host CPU pressure it grows,
// reproducing the paper's warning about in-guest timing.
func (vm *VM) GuestNow() sim.Time {
	if vm.vcpu == nil {
		return 0
	}
	vm.hostOS.Settle()
	now := vm.hostOS.Sim.Now()
	wall := now - vm.startTime
	halted := vm.haltedTotal
	if vm.halted {
		halted += now - vm.haltStart
	}
	lost := wall - vm.vcpu.CPUTime() - halted
	if lost < 0 {
		lost = 0
	}
	return wall - sim.Time(vm.Prof.TickLoss*float64(lost))
}

// serviceProgram is the VMM's host-side footprint: an endless duty cycle
// of elevated-priority work that exists while the VM is powered on.
type serviceProgram struct {
	vm    *VM
	burst float64
	mix   cost.Mix
	idle  sim.Time
	phase bool // false: emit burst next; true: emit idle next
}

// Next implements cost.Program.
func (sp *serviceProgram) Next() (cost.Step, bool) {
	if sp.vm.poweredOff {
		return cost.Step{}, false
	}
	sp.phase = !sp.phase
	if sp.phase {
		return cost.Step{Kind: cost.StepCompute, Cycles: sp.burst, Mix: sp.mix}, true
	}
	return cost.Step{Kind: cost.StepSleep, Dur: sp.idle}, true
}
