package vmm

import (
	"testing"

	"vmdg/internal/cost"
	"vmdg/internal/hostos"
	"vmdg/internal/sim"
)

// TestPowerOffDuringDiskIO: powering off while the guest blocks on a disk
// command must drain cleanly (the in-flight completion arrives, the vCPU
// exits, nothing panics or leaks a blocked thread).
func TestPowerOffDuringDiskIO(t *testing.T) {
	host := testHost(t)
	vm, err := New(host, Config{Prof: testProfile()})
	if err != nil {
		t.Fatal(err)
	}
	m := cost.NewMeter("io")
	for i := int64(0); i < 50; i++ {
		m.DiskWrite("f", i<<20, 1<<20)
		m.DiskSync("f")
	}
	vm.SpawnGuest("io", m.Profile().Iter())
	vm.PowerOn(hostos.PrioNormal)
	// Let a few commands start, then yank the power.
	host.RunFor(30 * sim.Millisecond)
	vm.PowerOff()
	host.Sim.Run()
	if host.M.Committed() != 0 {
		t.Fatalf("RAM still committed after power-off: %d", host.M.Committed())
	}
}

// TestPowerOffWhileHalted: a VM idling in its halt loop shuts down
// immediately and its vCPU thread exits.
func TestPowerOffWhileHalted(t *testing.T) {
	host := testHost(t)
	vm, err := New(host, Config{Prof: testProfile()})
	if err != nil {
		t.Fatal(err)
	}
	m := cost.NewMeter("nap")
	m.Int(1000)
	m.Sleep(10 * sim.Second) // vCPU halts for the duration
	vm.SpawnGuest("nap", m.Profile().Iter())
	vm.PowerOn(hostos.PrioIdle)
	host.RunFor(100 * sim.Millisecond)
	vm.PowerOff()
	host.Sim.RunUntil(host.Sim.Now() + 200*sim.Millisecond)
	host.Settle()
	if !vm.VCPU().Finished() {
		t.Fatal("halted vCPU did not exit on power-off")
	}
}

// TestFourVMsExhaustRAM: three 300 MB commits fit a 1 GB machine; the
// fourth must be rejected rather than silently over-committed.
func TestFourVMsExhaustRAM(t *testing.T) {
	host := testHost(t)
	for i := 0; i < 3; i++ {
		if _, err := New(host, Config{Name: string(rune('a' + i)), Prof: testProfile()}); err != nil {
			t.Fatalf("VM %d rejected: %v", i, err)
		}
	}
	if _, err := New(host, Config{Name: "d", Prof: testProfile()}); err == nil {
		t.Fatal("fourth 300 MB VM accepted on a 1 GB machine")
	}
}

// TestTwoVMsShareBaseImageViaCOW: instances resolve unwritten reads
// through the shared base and keep private overlays (§5, Csaba et al.).
func TestTwoVMsShareBaseImageViaCOW(t *testing.T) {
	host := testHost(t)
	base := NewRawImage("base", 0, 1<<30)
	cowA := NewCOWImage("a.cow", base, 2<<30)
	cowB := NewCOWImage("b.cow", base, 3<<30)
	vmA, err := New(host, Config{Name: "a", Prof: testProfile(), Image: cowA})
	if err != nil {
		t.Fatal(err)
	}
	vmB, err := New(host, Config{Name: "b", Prof: testProfile(), Image: cowB})
	if err != nil {
		t.Fatal(err)
	}
	mkio := func() cost.Program {
		m := cost.NewMeter("io")
		m.DiskWrite("data", 0, 256<<10)
		m.DiskSync("data")
		return m.Profile().Iter()
	}
	vmA.SpawnGuest("io", mkio())
	vmB.SpawnGuest("io", mkio())
	vmA.PowerOn(hostos.PrioNormal)
	vmB.PowerOn(hostos.PrioNormal)
	deadline := 60 * sim.Second
	if !host.RunUntilFinished(vmA.Proc, deadline) || !host.RunUntilFinished(vmB.Proc, deadline) {
		t.Fatal("guests did not finish")
	}
	vmA.PowerOff()
	vmB.PowerOff()
	if cowA.AllocatedClusters == 0 || cowB.AllocatedClusters == 0 {
		t.Fatal("writes did not allocate in the private overlays")
	}
	// The overlays are independent: same guest offsets, disjoint host
	// extents.
	extA := cowA.Translate(nil, 0, 4096, false)
	extB := cowB.Translate(nil, 0, 4096, false)
	if extA[0].FileID == extB[0].FileID {
		t.Fatalf("overlay writes collided in %q", extA[0].FileID)
	}
}

// TestVCPUHaltAccounting: a mostly-idle guest burns almost no host CPU,
// and its halted time is visible via the drift-free clock.
func TestVCPUHaltAccounting(t *testing.T) {
	host := testHost(t)
	vm, err := New(host, Config{Prof: Native()})
	if err != nil {
		t.Fatal(err)
	}
	m := cost.NewMeter("idleish")
	for i := 0; i < 10; i++ {
		m.Int(1e6) // ~0.4 ms
		m.Sleep(100 * sim.Millisecond)
	}
	vm.SpawnGuest("idleish", m.Profile().Iter())
	vm.PowerOn(hostos.PrioNormal)
	if !host.RunUntilFinished(vm.Proc, 60*sim.Second) {
		t.Fatal("guest did not finish")
	}
	host.Settle()
	cpu := vm.VCPU().CPUTime()
	if cpu > 50*sim.Millisecond {
		t.Fatalf("idle guest consumed %v host CPU over ~1s", cpu)
	}
	if vm.haltedTotal < 900*sim.Millisecond {
		t.Fatalf("halted time %v, want ≈1s", vm.haltedTotal)
	}
}

// TestEmulationCyclesScaleWithIO: more guest I/O means more device
// emulation on the vCPU, in proportion to command count.
func TestEmulationCyclesScaleWithIO(t *testing.T) {
	run := func(ops int) float64 {
		host := testHost(t)
		vm, err := New(host, Config{Prof: testProfile()})
		if err != nil {
			t.Fatal(err)
		}
		m := cost.NewMeter("io")
		for i := 0; i < ops; i++ {
			m.DiskWrite("f", int64(i)<<18, 1<<18)
			m.DiskSync("f")
		}
		vm.SpawnGuest("io", m.Profile().Iter())
		vm.PowerOn(hostos.PrioNormal)
		if !host.RunUntilFinished(vm.Proc, 600*sim.Second) {
			t.Fatal("did not finish")
		}
		return vm.EmulationCycles
	}
	small := run(4)
	big := run(16)
	if big < 3*small || big > 5*small {
		t.Fatalf("emulation cycles %v→%v, want ≈4× for 4× the commands", small, big)
	}
}
