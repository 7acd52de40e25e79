package vmm

import (
	"math"
	"testing"
	"testing/quick"

	"vmdg/internal/cost"
	"vmdg/internal/hostos"
	"vmdg/internal/hw"
	"vmdg/internal/sim"
)

func testHost(t *testing.T) *hostos.OS {
	t.Helper()
	s := sim.New()
	m, err := hw.NewMachine(s, hw.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return hostos.Boot(m)
}

func testProfile() Profile {
	return Profile{
		Name:      "test",
		IntExpand: 1.5, FPExpand: 1.2, MemExpand: 1.3, KernelExpand: 4,
		DiskPerOp: sim.Millisecond, DiskChunk: 256 << 10, DiskCPUPerOp: 1e5,
		NetMode:     NetBridged,
		NetPerFrame: 100 * sim.Microsecond,
		ServiceDuty: 0.25, ServicePeriod: 20 * sim.Millisecond,
		ServiceMix: cost.Mix{Int: 1},
		TickLoss:   0.8,
		RAMBytes:   300 << 20,
	}
}

func TestProfileValidate(t *testing.T) {
	if err := Native().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := testProfile().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.IntExpand = 0.5 },
		func(p *Profile) { p.KernelExpand = math.NaN() },
		func(p *Profile) { p.DiskPerOp = -1 },
		func(p *Profile) { p.DiskChunk = -1 },
		func(p *Profile) { p.ServiceDuty = 1.5 },
		func(p *Profile) { p.ServiceDuty = 0.3; p.ServicePeriod = 0 },
		func(p *Profile) { p.TickLoss = 2 },
		func(p *Profile) { p.RAMBytes = -1 },
		func(p *Profile) { p.NetPerFrame = -1 },
	}
	for i, mutate := range bad {
		p := testProfile()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, p)
		}
	}
}

func TestExpandFactorAndStep(t *testing.T) {
	p := testProfile()
	mix := cost.Mix{Int: 0.4, FP: 0.2, Mem: 0.3, Kernel: 0.1}
	want := 0.4*1.5 + 0.2*1.2 + 0.3*1.3 + 0.1*4.0
	if got := p.ExpandFactor(mix); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ExpandFactor = %v, want %v", got, want)
	}
	st := cost.Step{Kind: cost.StepCompute, Cycles: 1e6, Mix: mix}
	out := p.ExpandStep(st)
	if math.Abs(out.Cycles-1e6*want) > 1 {
		t.Fatalf("ExpandStep cycles = %v, want %v", out.Cycles, 1e6*want)
	}
	if math.Abs(out.Mix.Total()-1) > 1e-9 {
		t.Fatalf("expanded mix not normalized: %v", out.Mix)
	}
	// Native profile is the identity.
	n := Native()
	out2 := n.ExpandStep(st)
	if out2.Cycles != st.Cycles || out2.Mix != st.Mix {
		t.Fatalf("native expansion changed the step: %+v", out2)
	}
	// Non-compute steps pass through untouched.
	halt := cost.Step{Kind: cost.StepHalt}
	if p.ExpandStep(halt) != halt {
		t.Fatal("halt step modified")
	}
}

func TestExpandStepMonotoneProperty(t *testing.T) {
	p := testProfile()
	f := func(a, b, c, d uint8) bool {
		mix := cost.Mix{
			Int: float64(a), FP: float64(b), Mem: float64(c), Kernel: float64(d),
		}.Normalized()
		st := cost.Step{Kind: cost.StepCompute, Cycles: 1e6, Mix: mix}
		out := p.ExpandStep(st)
		// Expansion never shrinks work and never exceeds the max factor.
		return out.Cycles >= st.Cycles-1 && out.Cycles <= st.Cycles*4+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRawImageTranslate(t *testing.T) {
	img := NewRawImage("base", 1000, 1<<20)
	ext := img.Translate(nil, 4096, 8192, false)
	if len(ext) != 1 || ext[0].HostOff != 1000+4096 || ext[0].Bytes != 8192 {
		t.Fatalf("raw translate = %+v", ext)
	}
	if img.SizeBytes() != 1<<20 || img.TranslateCost() <= 0 {
		t.Fatal("raw image metadata wrong")
	}
}

func TestRawImageOutOfRangePanics(t *testing.T) {
	img := NewRawImage("b", 0, 4096)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range access")
		}
	}()
	img.Translate(nil, 0, 8192, false)
}

func TestCOWImageReadThroughAndWriteAllocation(t *testing.T) {
	base := NewRawImage("base", 0, 1<<20)
	cow := NewCOWImage("ovl", base, 10<<20)

	// Unwritten read: falls through to the base image.
	ext := cow.Translate(nil, 0, 4096, false)
	if len(ext) != 1 || ext[0].FileID != "base" {
		t.Fatalf("unwritten read = %+v", ext)
	}
	// Write: allocates in the overlay.
	ext = cow.Translate(nil, 0, 4096, true)
	if len(ext) != 1 || ext[0].FileID != "ovl" {
		t.Fatalf("write = %+v", ext)
	}
	if cow.AllocatedClusters != 1 || cow.OverlayBytes() != cowClusterSize {
		t.Fatalf("allocation bookkeeping: %d clusters", cow.AllocatedClusters)
	}
	// Subsequent read of the written range: served by the overlay.
	ext = cow.Translate(nil, 0, 4096, false)
	if ext[0].FileID != "ovl" {
		t.Fatalf("read-after-write = %+v", ext)
	}
	// A read crossing written and unwritten clusters splits.
	ext = cow.Translate(nil, cowClusterSize-4096, 8192, false)
	if len(ext) != 2 || ext[0].FileID != "ovl" || ext[1].FileID != "base" {
		t.Fatalf("boundary read = %+v", ext)
	}
}

func TestCOWImageTableRoundTrip(t *testing.T) {
	base := NewRawImage("base", 0, 1<<20)
	cow := NewCOWImage("ovl", base, 0)
	cow.Translate(nil, 0, 4096, true)
	cow.Translate(nil, 3*cowClusterSize, 4096, true)
	table := cow.OverlayTable()
	if len(table) != 2 {
		t.Fatalf("table = %v", table)
	}
	cow2 := NewCOWImage("ovl", base, 0)
	cow2.RestoreOverlayTable(table)
	for _, off := range []int64{0, 3 * cowClusterSize} {
		if ext := cow2.Translate(nil, off, 4096, false); ext[0].FileID != "ovl" {
			t.Fatalf("restored cluster at %d not in overlay", off)
		}
	}
	// New allocations must not collide with restored ones.
	cow2.Translate(nil, 5*cowClusterSize, 4096, true)
	seen := map[int64]bool{}
	for _, kv := range cow2.OverlayTable() {
		if seen[kv[1]] {
			t.Fatalf("overlay offset %d allocated twice", kv[1])
		}
		seen[kv[1]] = true
	}
}

func TestCOWTranslateCoversRequestProperty(t *testing.T) {
	base := NewRawImage("base", 0, 8<<20)
	cow := NewCOWImage("ovl", base, 0)
	f := func(offRaw, nRaw uint32, write bool) bool {
		off := int64(offRaw) % (8 << 20)
		n := int64(nRaw)%(1<<20) + 1
		if off+n > 8<<20 {
			n = 8<<20 - off
		}
		var total int64
		for _, e := range cow.Translate(nil, off, n, write) {
			if e.Bytes <= 0 {
				return false
			}
			total += e.Bytes
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCoalesceExtents(t *testing.T) {
	in := []Extent{
		{HostOff: 0, Bytes: 100, FileID: "a"},
		{HostOff: 100, Bytes: 50, FileID: "a"},
		{HostOff: 150, Bytes: 10, FileID: "b"},
		{HostOff: 200, Bytes: 10, FileID: "b"},
	}
	out := coalesceExtents(in)
	if len(out) != 3 || out[0].Bytes != 150 {
		t.Fatalf("coalesce = %+v", out)
	}
}

// runGuestCompute powers a VM with a pure-compute guest workload and
// returns the wall time to finish it.
func runGuestCompute(t *testing.T, prof Profile, cycles float64, mix cost.Mix) sim.Time {
	t.Helper()
	host := testHost(t)
	vm, err := New(host, Config{Prof: prof})
	if err != nil {
		t.Fatal(err)
	}
	prog := &cost.Profile{Name: "w", Steps: []cost.Step{{Kind: cost.StepCompute, Cycles: cycles, Mix: mix}}}
	vm.SpawnGuest("w", prog.Iter())
	vm.PowerOn(hostos.PrioNormal)
	if !host.RunUntilFinished(vm.Proc, 100*sim.Second) {
		t.Fatal("guest never finished")
	}
	done := host.Sim.Now()
	vm.PowerOff()
	host.Sim.Run()
	return done
}

func TestVMSlowdownMatchesExpansion(t *testing.T) {
	mix := cost.Mix{Int: 0.5, FP: 0.2, Mem: 0.3}
	cycles := 2.4e9
	nat := runGuestCompute(t, Native(), cycles, mix)
	vir := runGuestCompute(t, testProfile(), cycles, mix)
	slow := float64(vir) / float64(nat)
	want := testProfile().ExpandFactor(mix)
	// Guest kernel overhead shifts the ratio slightly; ±10% band.
	if slow < want*0.90 || slow > want*1.10 {
		t.Fatalf("slowdown = %.3f, want ≈%.3f", slow, want)
	}
}

func TestVMMemoryCommit(t *testing.T) {
	host := testHost(t)
	vm, err := New(host, Config{Prof: testProfile()})
	if err != nil {
		t.Fatal(err)
	}
	if host.M.Committed() != 300<<20 {
		t.Fatalf("committed = %d, want the configured 300 MB", host.M.Committed())
	}
	// Memory is constant while running — the paper's §4.2.1 point.
	vm.SpawnGuest("w", (&cost.Profile{Name: "w", Steps: []cost.Step{{Kind: cost.StepCompute, Cycles: 1e9, Mix: cost.Mix{Int: 1}}}}).Iter())
	vm.PowerOn(hostos.PrioIdle)
	host.RunFor(100 * sim.Millisecond)
	if host.M.Committed() != 300<<20 {
		t.Fatalf("commit drifted mid-run: %d", host.M.Committed())
	}
	vm.PowerOff()
	host.Sim.Run()
	if host.M.Committed() != 0 {
		t.Fatalf("RAM not released at power-off: %d", host.M.Committed())
	}
}

func TestVMOvercommitRejected(t *testing.T) {
	host := testHost(t)
	p := testProfile()
	p.RAMBytes = 2 << 30 // exceeds the 1 GB machine
	if _, err := New(host, Config{Prof: p}); err == nil {
		t.Fatal("overcommit accepted")
	}
}

func TestVMServiceThreadsRunAtElevatedPriority(t *testing.T) {
	host := testHost(t)
	vm, err := New(host, Config{Prof: testProfile()})
	if err != nil {
		t.Fatal(err)
	}
	// Endless guest worker.
	loop := cost.Loop(&cost.Profile{Name: "spin", Steps: []cost.Step{{Kind: cost.StepCompute, Cycles: 1e7, Mix: cost.Mix{Int: 1}}}})
	vm.SpawnGuest("spin", loop)
	vm.PowerOn(hostos.PrioIdle)
	host.RunFor(2 * sim.Second)
	host.Settle()
	if vm.SvcProc == nil {
		t.Fatal("no service process spawned despite ServiceDuty > 0")
	}
	svcShare := vm.SvcProc.CPUTime().Seconds() / 2.0
	if math.Abs(svcShare-0.25) > 0.03 {
		t.Fatalf("service duty = %.3f of a core, want ≈0.25", svcShare)
	}
	vm.PowerOff()
	host.Sim.Run()
}

func TestVMHaltWakeOnGuestSleep(t *testing.T) {
	host := testHost(t)
	vm, err := New(host, Config{Prof: Native()})
	if err != nil {
		t.Fatal(err)
	}
	m := cost.NewMeter("sleeper")
	m.Int(1e6)
	m.Sleep(300 * sim.Millisecond)
	m.Int(1e6)
	vm.SpawnGuest("sleeper", m.Profile().Iter())
	vm.PowerOn(hostos.PrioNormal)
	if !host.RunUntilFinished(vm.Proc, 10*sim.Second) {
		t.Fatal("sleeping guest never finished")
	}
	host.Settle()
	// The vCPU must have burned ~no CPU during the guest's sleep.
	if cpu := vm.VCPU().CPUTime(); cpu > 50*sim.Millisecond {
		t.Fatalf("vCPU burned %v during a 300ms guest sleep", cpu)
	}
	if host.Sim.Now() < 300*sim.Millisecond {
		t.Fatal("guest sleep lost")
	}
}

func TestVirtualDiskChunking(t *testing.T) {
	host := testHost(t)
	vm, err := New(host, Config{Prof: testProfile()}) // 256 KB chunks
	if err != nil {
		t.Fatal(err)
	}
	m := cost.NewMeter("io")
	m.DiskWrite("f", 0, 1<<20)
	m.DiskSync("f")
	vm.SpawnGuest("io", m.Profile().Iter())
	vm.PowerOn(hostos.PrioNormal)
	if !host.RunUntilFinished(vm.Proc, 100*sim.Second) {
		t.Fatal("io guest never finished")
	}
	// 1 MB fsync through 256 KB chunks = 4 virtual disk commands.
	if vm.Disk.Chunks < 4 {
		t.Fatalf("chunks = %d, want ≥4 for 1MB/256KB", vm.Disk.Chunks)
	}
	if vm.EmulationCycles <= 0 {
		t.Fatal("no device-emulation cycles charged")
	}
}

func TestVirtualDiskSlowerThanNative(t *testing.T) {
	run := func(prof Profile) sim.Time {
		host := testHost(t)
		vm, err := New(host, Config{Prof: prof})
		if err != nil {
			t.Fatal(err)
		}
		m := cost.NewMeter("io")
		m.DiskWrite("f", 0, 8<<20)
		m.DiskSync("f")
		m.DiskRead("f", 8<<20, 0) // no-op guard
		vm.SpawnGuest("io", m.Profile().Iter())
		vm.PowerOn(hostos.PrioNormal)
		if !host.RunUntilFinished(vm.Proc, 1000*sim.Second) {
			t.Fatal("io guest never finished")
		}
		return host.Sim.Now()
	}
	nat := run(Native())
	vir := run(testProfile())
	if float64(vir) < 1.1*float64(nat) {
		t.Fatalf("virtual disk not visibly slower: %v vs %v", vir, nat)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	host := testHost(t)
	base := NewRawImage("base", 0, 1<<30)
	cow := NewCOWImage("ovl", base, 2<<30)
	vm, err := New(host, Config{Name: "ckpt", Prof: testProfile(), Image: cow})
	if err != nil {
		t.Fatal(err)
	}
	m := cost.NewMeter("io")
	m.DiskWrite("f", 0, 1<<20)
	m.DiskSync("f")
	vm.SpawnGuest("io", m.Profile().Iter())
	vm.PowerOn(hostos.PrioNormal)
	if !host.RunUntilFinished(vm.Proc, 100*sim.Second) {
		t.Fatal("guest never finished")
	}

	ck := vm.Checkpoint([]byte("workunit-progress=42%"))
	if ck.OverlayBytes == 0 {
		t.Fatal("checkpoint captured no overlay data despite guest writes")
	}
	blob, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ck2, err := DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if string(ck2.Payload) != "workunit-progress=42%" || ck2.VMName != "ckpt" {
		t.Fatalf("checkpoint payload corrupted: %+v", ck2)
	}

	// Migrate: restore on a different machine.
	host2 := testHost(t)
	base2 := NewRawImage("base", 0, 1<<30)
	cow2 := NewCOWImage("ovl", base2, 2<<30)
	vm2, err := New(host2, Config{Name: "ckpt2", Prof: testProfile(), Image: cow2})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm2.Restore(ck2); err != nil {
		t.Fatal(err)
	}
	if cow2.OverlayBytes() != ck.OverlayBytes {
		t.Fatalf("restored overlay %d bytes, want %d", cow2.OverlayBytes(), ck.OverlayBytes)
	}
}

func TestRestoreErrors(t *testing.T) {
	host := testHost(t)
	vm, err := New(host, Config{Prof: testProfile()}) // raw image
	if err != nil {
		t.Fatal(err)
	}
	ck := &Checkpoint{ProfileName: "test"}
	if err := vm.Restore(ck); err == nil {
		t.Fatal("restore onto raw image accepted")
	}
	ck.ProfileName = "other"
	if err := vm.Restore(ck); err == nil {
		t.Fatal("cross-profile restore accepted")
	}
}

func TestGuestClockDriftUnderLoad(t *testing.T) {
	host := testHost(t)
	vm, err := New(host, Config{Prof: testProfile()})
	if err != nil {
		t.Fatal(err)
	}
	loop := cost.Loop(&cost.Profile{Name: "spin", Steps: []cost.Step{{Kind: cost.StepCompute, Cycles: 1e7, Mix: cost.Mix{Int: 1}}}})
	vm.SpawnGuest("spin", loop)
	vm.PowerOn(hostos.PrioIdle)

	// Phase 1: idle host — guest keeps near-perfect time.
	host.RunFor(sim.Second)
	drift1 := (host.Sim.Now() - vm.startTime) - vm.GuestNow()

	// Phase 2: saturate both host cores with normal-priority work; the
	// idle-priority vCPU starves and the guest clock falls behind.
	hp := host.NewProcess("hog")
	for i := 0; i < 2; i++ {
		host.Spawn(hp, "hog", hostos.PrioNormal,
			cost.Loop(&cost.Profile{Name: "h", Steps: []cost.Step{{Kind: cost.StepCompute, Cycles: 1e7, Mix: cost.Mix{Int: 1}}}}))
	}
	host.RunFor(2 * sim.Second)
	drift2 := (host.Sim.Now() - vm.startTime) - vm.GuestNow()

	if drift1 > 100*sim.Millisecond {
		t.Fatalf("unloaded guest drifted %v in 1s", drift1)
	}
	if drift2 < 500*sim.Millisecond {
		t.Fatalf("starved guest drifted only %v in 2s of saturation", drift2)
	}
}

func TestNativeClockExact(t *testing.T) {
	host := testHost(t)
	vm, err := New(host, Config{Prof: Native()})
	if err != nil {
		t.Fatal(err)
	}
	loop := cost.Loop(&cost.Profile{Name: "spin", Steps: []cost.Step{{Kind: cost.StepCompute, Cycles: 1e7, Mix: cost.Mix{Int: 1}}}})
	vm.SpawnGuest("spin", loop)
	vm.PowerOn(hostos.PrioNormal)
	host.RunFor(sim.Second)
	if drift := sim.Second - vm.GuestNow(); drift > sim.Millisecond {
		t.Fatalf("native clock drifted %v", drift)
	}
}

func TestPowerOffIdempotentAndDoublePowerOnPanics(t *testing.T) {
	host := testHost(t)
	vm, err := New(host, Config{Prof: Native()})
	if err != nil {
		t.Fatal(err)
	}
	vm.SpawnGuest("w", (&cost.Profile{Name: "w", Steps: []cost.Step{{Kind: cost.StepCompute, Cycles: 1e6, Mix: cost.Mix{Int: 1}}}}).Iter())
	vm.PowerOn(hostos.PrioNormal)
	vm.PowerOff()
	vm.PowerOff() // idempotent
	host.Sim.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("double PowerOn did not panic")
		}
	}()
	vm.PowerOn(hostos.PrioNormal)
}

func TestNetModeString(t *testing.T) {
	if NetBridged.String() != "bridged" || NetNAT.String() != "nat" {
		t.Fatal("NetMode strings wrong")
	}
}
