// Package vmm implements the system-level virtual machine monitor
// framework: a vCPU execution engine that transforms the guest kernel's
// instruction stream by per-class cost expansion, emulated block and
// network devices with their own service queues, copy-on-write disk
// images, checkpoint/restore, and the host-side service footprint that
// makes a VMM intrusive.
//
// One Profile instance describes one of the paper's four environments
// (plus the native baseline); the numeric calibration for each lives in
// vmdg/internal/vmm/profiles.
package vmm

import (
	"fmt"
	"math"

	"vmdg/internal/cost"
	"vmdg/internal/sim"
)

// NetMode selects the virtual NIC's connection to the LAN.
type NetMode int

const (
	// NetBridged attaches the guest to the LAN as a peer station; frames
	// pay only device-emulation costs.
	NetBridged NetMode = iota
	// NetNAT routes frames through a userspace proxy in the VMM; both
	// directions share the proxy's single service queue, the mechanism
	// behind the paper's 3.68 Mbps (VmPlayer) and ~75× (VirtualBox)
	// NAT collapses.
	NetNAT
)

func (m NetMode) String() string {
	if m == NetNAT {
		return "nat"
	}
	return "bridged"
}

// Profile is the complete cost model of one virtualization environment.
type Profile struct {
	Name string

	// Execution expansion: host cycles spent per guest cycle, by class.
	// Binary translators keep user-mode integer near 1; pure emulation
	// (QEMU without kernel module assistance on privileged paths) pushes
	// everything up. Kernel-class expansion is the dominant term for
	// I/O-bound guests: every privileged instruction traps or is
	// retranslated.
	IntExpand    float64
	FPExpand     float64
	MemExpand    float64
	KernelExpand float64

	// Virtual disk emulation.
	DiskPerOp    sim.Time // latency added per virtual disk command
	DiskChunk    int64    // largest transfer per virtual disk command (0 = unlimited)
	DiskCPUPerOp float64  // host cycles of device-emulation work per command

	// Virtual NIC.
	NetMode        NetMode
	NetPerFrame    sim.Time // device-path service time per frame
	NetPerByte     sim.Time // additional service per payload byte
	NetCPUPerFrame float64  // host cycles of emulation per frame

	// Host-side service footprint while the VM is powered on: a
	// free-running duty cycle at elevated priority (the VMM's kernel
	// components and translator upkeep do not inherit the guest's idle
	// priority — the paper's central intrusiveness mechanism).
	ServiceDuty   float64  // fraction of one core (0..1)
	ServicePeriod sim.Time // duty-cycle period
	ServiceMix    cost.Mix // class mix of the service work

	// TickLoss is the fraction of timer ticks lost while the vCPU is
	// descheduled, driving guest clock drift (§4 methodology: timing
	// inside loaded VMs is unreliable).
	TickLoss float64

	// RAMBytes is the configured guest memory, committed at power-on
	// (§4.2.1: constant, known in advance; 300 MB in the paper).
	RAMBytes int64
}

// Native returns the pass-through profile: running on this "VMM" is
// exactly running on hardware. The native baseline of every figure is the
// same guest kernel under this profile.
func Native() Profile {
	return Profile{
		Name:      "native",
		IntExpand: 1, FPExpand: 1, MemExpand: 1, KernelExpand: 1,
		NetMode:  NetBridged,
		RAMBytes: 0, // no reservation: the OS owns the machine
	}
}

// Validate rejects physically meaningless profiles.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("vmm: profile needs a name")
	}
	for _, e := range []struct {
		name string
		v    float64
	}{
		{"IntExpand", p.IntExpand}, {"FPExpand", p.FPExpand},
		{"MemExpand", p.MemExpand}, {"KernelExpand", p.KernelExpand},
	} {
		if e.v < 1 || math.IsNaN(e.v) || math.IsInf(e.v, 0) {
			return fmt.Errorf("vmm: %s.%s = %v; expansion factors must be ≥ 1", p.Name, e.name, e.v)
		}
	}
	if p.DiskPerOp < 0 || p.NetPerFrame < 0 || p.NetPerByte < 0 {
		return fmt.Errorf("vmm: %s has negative device costs", p.Name)
	}
	if p.DiskChunk < 0 {
		return fmt.Errorf("vmm: %s DiskChunk negative", p.Name)
	}
	if p.ServiceDuty < 0 || p.ServiceDuty > 1 {
		return fmt.Errorf("vmm: %s ServiceDuty %v outside [0,1]", p.Name, p.ServiceDuty)
	}
	if p.ServiceDuty > 0 && p.ServicePeriod <= 0 {
		return fmt.Errorf("vmm: %s has service duty but no period", p.Name)
	}
	if p.TickLoss < 0 || p.TickLoss > 1 {
		return fmt.Errorf("vmm: %s TickLoss %v outside [0,1]", p.Name, p.TickLoss)
	}
	if p.RAMBytes < 0 {
		return fmt.Errorf("vmm: %s negative RAM", p.Name)
	}
	return nil
}

// natQueueFrames bounds the NAT proxy's pending-frame buffer, sized so
// windowed TCP (≤ ~70 frames of data+ACKs in flight, its 64 KB window)
// never overflows it while an unpaced UDP flood does, producing loss.
const natQueueFrames = 96

// ExpandFactor returns the host-cycles-per-guest-cycle multiplier for a
// compute step with the given class mix.
func (p Profile) ExpandFactor(m cost.Mix) float64 {
	return m.Int*p.IntExpand + m.FP*p.FPExpand + m.Mem*p.MemExpand + m.Kernel*p.KernelExpand
}

// ExpandStep transforms a guest compute step into the host work it costs.
// Cycles grow by the class-weighted expansion; the emitted mix is
// re-weighted by where the host cycles actually go (a heavily expanded
// kernel step becomes mostly integer work: trap handling and translation
// are ALU/branch code, while the guest's memory traffic stays constant).
//
// The receiver is a pointer because a vCPU calls this on every guest
// compute step, and a Profile is too large to copy that often.
func (p *Profile) ExpandStep(s cost.Step) cost.Step {
	if s.Kind != cost.StepCompute {
		return s
	}
	intCy := s.Cycles * s.Mix.Int * p.IntExpand
	fpCy := s.Cycles * s.Mix.FP * p.FPExpand
	memCy := s.Cycles * s.Mix.Mem * p.MemExpand
	krnCy := s.Cycles * s.Mix.Kernel * p.KernelExpand
	total := intCy + fpCy + memCy + krnCy
	if total <= 0 {
		return s
	}
	// The guest's own cycles keep their classes; the expansion overhead
	// beyond 1× is VMM code — integer-dominated with a modest memory
	// component (translation-cache and shadow-structure traffic).
	over := total - s.Cycles
	hostMix := cost.Mix{
		Int:    s.Cycles*s.Mix.Int + 0.8*over,
		FP:     s.Cycles * s.Mix.FP,
		Mem:    s.Cycles*s.Mix.Mem + 0.2*over,
		Kernel: s.Cycles * s.Mix.Kernel,
	}
	return cost.Step{Kind: cost.StepCompute, Cycles: total, Mix: hostMix.Normalized()}
}

// EmuMix is the class mix of device-emulation code (copy loops and
// control logic inside the VMM).
var EmuMix = cost.Mix{Int: 0.65, Mem: 0.35}
