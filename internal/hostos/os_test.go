package hostos

import (
	"math"
	"testing"

	"vmdg/internal/cost"
	"vmdg/internal/hw"
	"vmdg/internal/sim"
)

func newOS(tb testing.TB) *OS {
	tb.Helper()
	s := sim.New()
	m, err := hw.NewMachine(s, hw.Config{Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	return Boot(m)
}

// computeProfile builds a profile of total cycles of compute with the given
// mix, split into chunks so quantum preemption has boundaries to respect.
func computeProfile(name string, cycles float64, mix cost.Mix) *cost.Profile {
	const chunk = 10e6
	p := &cost.Profile{Name: name}
	for cycles > 0 {
		c := math.Min(cycles, chunk)
		p.Steps = append(p.Steps, cost.Step{Kind: cost.StepCompute, Cycles: c, Mix: mix})
		cycles -= c
	}
	return p
}

func TestSingleThreadTiming(t *testing.T) {
	o := newOS(t)
	p := o.NewProcess("bench")
	cycles := 2.4e9 // exactly one second at 2.4 GHz
	var finished sim.Time
	th := o.Spawn(p, "w", PrioNormal, computeProfile("w", cycles, cost.Mix{Int: 1}).Iter())
	th.OnExit = func() { finished = o.Sim.Now() }
	o.Sim.Run()
	if math.Abs(finished.Seconds()-1.0) > 1e-6 {
		t.Fatalf("1s of work finished at %v", finished)
	}
	if math.Abs(th.CyclesDone()-cycles) > 1 {
		t.Fatalf("cycles done = %v", th.CyclesDone())
	}
	if math.Abs(th.CPUTime().Seconds()-1.0) > 1e-6 {
		t.Fatalf("cpu time = %v", th.CPUTime())
	}
}

func TestTwoALUThreadsPerfectScaling(t *testing.T) {
	o := newOS(t)
	p := o.NewProcess("bench")
	cycles := 2.4e9
	var done int
	var last sim.Time
	for i := 0; i < 2; i++ {
		th := o.Spawn(p, "w", PrioNormal, computeProfile("w", cycles, cost.Mix{Int: 1}).Iter())
		th.OnExit = func() { done++; last = o.Sim.Now() }
	}
	o.Sim.Run()
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
	// Pure ALU threads do not contend: both finish in ~1 s.
	if math.Abs(last.Seconds()-1.0) > 1e-6 {
		t.Fatalf("two ALU threads finished at %v, want 1s", last)
	}
}

func TestMemoryContentionSlowsCoRunners(t *testing.T) {
	o := newOS(t)
	p := o.NewProcess("bench")
	cycles := 2.4e9
	mix := cost.Mix{Int: 0.5, Mem: 0.5}
	var last sim.Time
	for i := 0; i < 2; i++ {
		th := o.Spawn(p, "w", PrioNormal, computeProfile("w", cycles, mix).Iter())
		th.OnExit = func() { last = o.Sim.Now() }
	}
	o.Sim.Run()
	want := 1 + o.M.CPU.BusK*0.25 // slowdown 1 + K·m²
	if math.Abs(last.Seconds()-want) > 1e-3 {
		t.Fatalf("contended finish = %v, want ~%vs", last, want)
	}
}

func TestThreeThreadsTwoCoresFairShare(t *testing.T) {
	o := newOS(t)
	p := o.NewProcess("bench")
	cycles := 2.4e9
	var finish []sim.Time
	for i := 0; i < 3; i++ {
		th := o.Spawn(p, "w", PrioNormal, computeProfile("w", cycles, cost.Mix{Int: 1}).Iter())
		th.OnExit = func() { finish = append(finish, o.Sim.Now()) }
	}
	o.Sim.Run()
	if len(finish) != 3 {
		t.Fatalf("finished %d", len(finish))
	}
	// 3 seconds of aggregate work on 2 cores: last finisher ≥ 1.5 s, and
	// round-robin should keep completions within ~a quantum of each other
	// near the theoretical 1.5 s.
	last := finish[2].Seconds()
	if last < 1.499 || last > 1.6 {
		t.Fatalf("last finish = %v, want ~1.5s", last)
	}
}

func TestPriorityPreemption(t *testing.T) {
	o := newOS(t)
	low := o.NewProcess("low")
	cycles := 2.4e9
	// Fill both cores with low-priority work.
	for i := 0; i < 2; i++ {
		o.Spawn(low, "low", PrioBelowNormal, computeProfile("l", cycles, cost.Mix{Int: 1}).Iter())
	}
	// At t=100ms, a normal-priority thread arrives and must preempt.
	var hiStart, hiEnd sim.Time
	o.Sim.Schedule(100*sim.Millisecond, "spawn-hi", callFunc(func() {
		hi := o.NewProcess("hi")
		hiStart = o.Sim.Now()
		th := o.Spawn(hi, "hi", PrioNormal, computeProfile("h", cycles/4, cost.Mix{Int: 1}).Iter())
		th.OnExit = func() { hiEnd = o.Sim.Now() }
	}))
	o.Sim.Run()
	// 0.25 s of work, dispatched immediately via preemption.
	if got := (hiEnd - hiStart).Seconds(); math.Abs(got-0.25) > 1e-3 {
		t.Fatalf("high-prio latency = %v, want 0.25s", got)
	}
}

func TestIdlePriorityStarvedByNormal(t *testing.T) {
	o := newOS(t)
	cycles := 2.4e9
	pn := o.NewProcess("normal")
	var normalEnd sim.Time
	for i := 0; i < 2; i++ {
		th := o.Spawn(pn, "n", PrioNormal, computeProfile("n", cycles, cost.Mix{Int: 1}).Iter())
		th.OnExit = func() { normalEnd = o.Sim.Now() }
	}
	pi := o.NewProcess("idle")
	idle := o.Spawn(pi, "i", PrioIdle, computeProfile("i", cycles, cost.Mix{Int: 1}).Iter())
	o.RunFor(500 * sim.Millisecond)
	o.Settle()
	if idle.CPUTime() != 0 {
		t.Fatalf("idle thread ran %v while normal threads saturate cores", idle.CPUTime())
	}
	o.Sim.Run()
	if !idle.Finished() {
		t.Fatal("idle thread never finished after cores freed")
	}
	_ = normalEnd
}

func TestQuantumRoundRobinCounts(t *testing.T) {
	o := newOS(t)
	p := o.NewProcess("rr")
	cycles := 2.4e9
	ths := make([]*Thread, 4)
	for i := range ths {
		ths[i] = o.Spawn(p, "w", PrioNormal, computeProfile("w", cycles, cost.Mix{Int: 1}).Iter())
	}
	o.Sim.Run()
	for i, th := range ths {
		if th.Dispatches() < 10 {
			t.Errorf("thread %d dispatched only %d times; round-robin broken?", i, th.Dispatches())
		}
	}
	// Aggregate: 4 s of work on 2 cores → 2 s wall.
	if got := o.Sim.Now().Seconds(); math.Abs(got-2.0) > 0.05 {
		t.Fatalf("wall = %v, want ~2s", got)
	}
}

func TestDiskStepBlocksThread(t *testing.T) {
	o := newOS(t)
	p := o.NewProcess("io")
	m := cost.NewMeter("io")
	m.Int(1e6)
	m.DiskRead("f", 0, 1<<20)
	m.Int(1e6)
	prof := m.Profile()
	var end sim.Time
	th := o.Spawn(p, "io", PrioNormal, prof.Iter())
	th.OnExit = func() { end = o.Sim.Now() }
	o.Sim.Run()
	if !th.Finished() {
		t.Fatal("io thread did not finish")
	}
	// Wall time must include the disk service (≥ ~11 ms seek + transfer)
	// but CPU time only the compute portion.
	if end < 10*sim.Millisecond {
		t.Fatalf("finished at %v, disk latency missing", end)
	}
	if th.CPUTime() >= end {
		t.Fatalf("cpu time %v not less than wall %v despite blocking", th.CPUTime(), end)
	}
	if o.M.Disk.Reads != 1 {
		t.Fatalf("disk reads = %d", o.M.Disk.Reads)
	}
}

func TestSleepStep(t *testing.T) {
	o := newOS(t)
	p := o.NewProcess("s")
	m := cost.NewMeter("s")
	m.Sleep(250 * sim.Millisecond)
	var end sim.Time
	th := o.Spawn(p, "s", PrioNormal, m.Profile().Iter())
	th.OnExit = func() { end = o.Sim.Now() }
	o.Sim.Run()
	if end < 250*sim.Millisecond {
		t.Fatalf("woke at %v", end)
	}
	if th.CPUTime() > sim.Millisecond {
		t.Fatalf("sleeping burned %v CPU", th.CPUTime())
	}
}

func TestClockStepSynchronous(t *testing.T) {
	o := newOS(t)
	p := o.NewProcess("c")
	m := cost.NewMeter("c")
	m.Clock()
	m.Int(100)
	th := o.Spawn(p, "c", PrioNormal, m.Profile().Iter())
	o.Sim.Run()
	if !th.Finished() {
		t.Fatal("clock step wedged the thread")
	}
}

// TestHaltParksUntilUnblock: a halt step blocks the thread with nothing
// pending until its owner calls Unblock; the program then goes on.
func TestHaltParksUntilUnblock(t *testing.T) {
	o := newOS(t)
	p := o.NewProcess("h")
	prof := &cost.Profile{Name: "h", Steps: []cost.Step{
		{Kind: cost.StepHalt},
		{Kind: cost.StepCompute, Cycles: 2.4e6, Mix: cost.Mix{Int: 1}}, // 1 ms
	}}
	var end sim.Time
	th := o.Spawn(p, "h", PrioNormal, prof.Iter())
	th.OnExit = func() { end = o.Sim.Now() }
	o.RunFor(10 * sim.Millisecond)
	if !th.Blocked() {
		t.Fatalf("halted thread is %v", th)
	}
	if at, ok := o.Sim.NextEventTime(); ok {
		t.Fatalf("halted thread left an event pending at %v", at)
	}
	o.Unblock(th)
	o.Sim.Run()
	if end != 11*sim.Millisecond {
		t.Fatalf("thread finished at %v, want 11ms", end)
	}
}

func TestUnhandledNetStepPanics(t *testing.T) {
	o := newOS(t)
	p := o.NewProcess("x")
	m := cost.NewMeter("x")
	m.NetSend(1, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for net step without handler")
		}
	}()
	o.Spawn(p, "x", PrioNormal, m.Profile().Iter())
	o.Sim.Run()
}

func TestInvalidPriorityPanics(t *testing.T) {
	o := newOS(t)
	p := o.NewProcess("x")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for invalid priority")
		}
	}()
	o.Spawn(p, "x", Priority(99), computeProfile("x", 1, cost.Mix{Int: 1}).Iter())
}

func TestPreemptionCounted(t *testing.T) {
	o := newOS(t)
	lowp := o.NewProcess("low")
	cycles := 2.4e9
	lows := make([]*Thread, 2)
	for i := range lows {
		lows[i] = o.Spawn(lowp, "low", PrioIdle, computeProfile("l", cycles, cost.Mix{Int: 1}).Iter())
	}
	o.Sim.Schedule(50*sim.Millisecond, "hi", callFunc(func() {
		hp := o.NewProcess("hi")
		o.Spawn(hp, "hi", PrioNormal, computeProfile("h", cycles/10, cost.Mix{Int: 1}).Iter())
	}))
	o.Sim.Run()
	if lows[0].Preemptions()+lows[1].Preemptions() == 0 {
		t.Fatal("no preemption recorded")
	}
}

func TestProcessAccounting(t *testing.T) {
	o := newOS(t)
	p := o.NewProcess("acc")
	cycles := 1.2e9
	o.Spawn(p, "a", PrioNormal, computeProfile("a", cycles, cost.Mix{Int: 1}).Iter())
	o.Spawn(p, "b", PrioNormal, computeProfile("b", cycles, cost.Mix{Int: 1}).Iter())
	o.Sim.Run()
	if math.Abs(p.CyclesDone()-2*cycles) > 1 {
		t.Fatalf("process cycles = %v", p.CyclesDone())
	}
	if !p.Finished() {
		t.Fatal("process not finished")
	}
	if math.Abs(p.CPUTime().Seconds()-1.0) > 1e-6 {
		t.Fatalf("process cpu = %v, want 1s total", p.CPUTime())
	}
}

func TestIdleTimeAccounting(t *testing.T) {
	o := newOS(t)
	p := o.NewProcess("i")
	o.Spawn(p, "w", PrioNormal, computeProfile("w", 2.4e9, cost.Mix{Int: 1}).Iter())
	o.Sim.Run()
	// Core 0 busy 1 s; core 1 idle throughout.
	if o.IdleTime(1) < 999*sim.Millisecond {
		t.Fatalf("core 1 idle = %v, want ~1s", o.IdleTime(1))
	}
	if o.IdleTime(0) > sim.Millisecond {
		t.Fatalf("core 0 idle = %v, want ~0", o.IdleTime(0))
	}
}

func TestRunUntilFinished(t *testing.T) {
	o := newOS(t)
	p := o.NewProcess("f")
	o.Spawn(p, "w", PrioNormal, computeProfile("w", 2.4e8, cost.Mix{Int: 1}).Iter())
	if !o.RunUntilFinished(p, 10*sim.Second) {
		t.Fatal("process did not finish before deadline")
	}
	o2 := newOS(t)
	p2 := o2.NewProcess("f2")
	o2.Spawn(p2, "w", PrioNormal, computeProfile("w", 2.4e12, cost.Mix{Int: 1}).Iter())
	if o2.RunUntilFinished(p2, 10*sim.Millisecond) {
		t.Fatal("1000s of work claimed finished in 10ms")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (sim.Time, float64, uint64) {
		s := sim.New()
		m, _ := hw.NewMachine(s, hw.Config{Seed: 99})
		o := Boot(m)
		p := o.NewProcess("d")
		for i := 0; i < 5; i++ {
			mm := cost.NewMeter("w")
			mm.Int(5e8)
			mm.DiskRead("f", int64(i)<<20, 1<<19)
			mm.FP(3e8)
			mm.Sleep(3 * sim.Millisecond)
			mm.Mem(1e8)
			o.Spawn(p, "w", PrioNormal, mm.Profile().Iter())
		}
		s.Run()
		return s.Now(), p.CyclesDone(), s.Fired()
	}
	t1, c1, f1 := run()
	t2, c2, f2 := run()
	if t1 != t2 || c1 != c2 || f1 != f2 {
		t.Fatalf("runs diverged: (%v,%v,%d) vs (%v,%v,%d)", t1, c1, f1, t2, c2, f2)
	}
}

func TestThreadStringAndStates(t *testing.T) {
	o := newOS(t)
	p := o.NewProcess("s")
	th := o.Spawn(p, "w", PrioNormal, computeProfile("w", 1e6, cost.Mix{Int: 1}).Iter())
	if th.String() == "" {
		t.Fatal("empty String")
	}
	if !th.Running() {
		t.Fatal("spawned thread with free core should be running")
	}
	o.Sim.Run()
	if !th.Finished() || th.Running() || th.Blocked() {
		t.Fatalf("bad final state: %v", th)
	}
}

// loopingOS boots the default 2-core machine with three endless compute
// threads (Int 0.5, Mem 0.5), so every step completion and quantum expiry
// is a scheduler transition that moves bus contention on both cores. A
// second of warm-up sizes the ready queues and the event free list.
func loopingOS(tb testing.TB) *OS {
	o := newOS(tb)
	p := o.NewProcess("loop")
	prof := computeProfile("w", 10e6, cost.Mix{Int: 0.5, Mem: 0.5})
	for i := 0; i < 3; i++ {
		o.Spawn(p, "w", PrioNormal, cost.Loop(prof))
	}
	o.RunFor(sim.Second)
	return o
}

// TestRefreshAllocatesNothing: a steady scheduler transition re-arms each
// core's event in place, with a per-core Caller and reused rate slices,
// so it allocates nothing. The windows run inside one AllocsPerRun call,
// so its count is exact: AllocsPerRun divides by the number of calls and
// truncates.
func TestRefreshAllocatesNothing(t *testing.T) {
	const windows = 50
	o := loopingOS(t)
	fired := o.Sim.Fired()
	allocs := testing.AllocsPerRun(1, func() {
		for range windows {
			o.RunFor(100 * sim.Millisecond)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations in %d windows of 100 ms of three looping threads, want 0", allocs, windows)
	}
	if o.Sim.Fired() == fired {
		t.Fatal("no scheduler event fired")
	}
}

// TestPreemptionLeavesNoTombstone: undispatch leaves a core's event armed
// for the transition's refreshAll to re-arm or cancel, so after a
// preemption or a block each busy core has exactly one pending event and
// an idle core none. An above-normal thread that computes briefly and
// sleeps 3 ms preempts one of two normal looping threads on every
// wake-up; no core ever idles, so every pending event is a busy core's
// timer or the sleeper's wake-up.
func TestPreemptionLeavesNoTombstone(t *testing.T) {
	o := newOS(t)
	p := o.NewProcess("p")
	loop := computeProfile("w", 10e6, cost.Mix{Int: 0.5, Mem: 0.5})
	var normal []*Thread
	for i := 0; i < 2; i++ {
		normal = append(normal, o.Spawn(p, "w", PrioNormal, cost.Loop(loop)))
	}
	burst := &cost.Profile{Name: "hi", Steps: []cost.Step{
		{Kind: cost.StepCompute, Cycles: 1e6, Mix: cost.Mix{Int: 1}},
		{Kind: cost.StepSleep, Dur: 3 * sim.Millisecond},
	}}
	hi := o.Spawn(p, "hi", PrioAboveNormal, cost.Loop(burst))

	const windows = 500
	bad, extra := 0, 0
	for i := 0; i < windows; i++ {
		o.RunFor(1700 * sim.Microsecond)
		want := 0
		for c := range o.cores {
			if o.cores[c].t != nil {
				want++
			}
		}
		if hi.Blocked() {
			want++
		}
		if got := o.Sim.Pending(); got != want {
			bad++
			extra += got - want
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d windows held more pending events than busy cores plus sleepers (%d extra in all)", bad, windows, extra)
	}
	if normal[0].Preemptions()+normal[1].Preemptions() < windows/2 {
		t.Fatalf("the normal threads were preempted %d and %d times, want one per wake-up",
			normal[0].Preemptions(), normal[1].Preemptions())
	}
}

// TestIdleCoreHoldsZeroHandle: refreshAll cancels an idle core's event
// and zeroes its Handle, so later transitions skip the core instead of
// cancelling an inert Handle again. One thread loops compute and a 3 ms
// sleep on the default 2-core machine, so a core idles in most windows.
func TestIdleCoreHoldsZeroHandle(t *testing.T) {
	o := newOS(t)
	p := o.NewProcess("p")
	o.Spawn(p, "w", PrioNormal, cost.Loop(&cost.Profile{Name: "w", Steps: []cost.Step{
		{Kind: cost.StepCompute, Cycles: 2e6, Mix: cost.Mix{Int: 1}},
		{Kind: cost.StepSleep, Dur: 3 * sim.Millisecond},
	}}))

	const windows = 500
	idle, bad := 0, 0
	for range windows {
		o.RunFor(700 * sim.Microsecond)
		for c := range o.cores {
			if o.cores[c].t != nil {
				continue
			}
			idle++
			if o.cores[c].event != (sim.Handle{}) {
				bad++
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d idle-core observations held a non-zero Handle", bad, idle)
	}
	if idle == 0 {
		t.Fatal("no core was ever idle")
	}
}

// TestBlockingStepsAllocateNothing: a native thread's sleep or disk
// request is woken by a pointer alias of the thread itself, so threads
// looping compute and a blocking step allocate nothing. The windows run
// inside one AllocsPerRun call, so its count is exact.
func TestBlockingStepsAllocateNothing(t *testing.T) {
	const windows = 50
	o := newOS(t)
	p := o.NewProcess("p")
	for _, blocking := range []cost.Step{
		{Kind: cost.StepSleep, Dur: 3 * sim.Millisecond},
		{Kind: cost.StepDiskRead, File: "r", Bytes: 64 << 10},
		{Kind: cost.StepDiskWrite, File: "w", Bytes: 64 << 10},
	} {
		o.Spawn(p, blocking.Kind.String(), PrioNormal, cost.Loop(&cost.Profile{Name: "io", Steps: []cost.Step{
			{Kind: cost.StepCompute, Cycles: 1e6, Mix: cost.Mix{Int: 1}},
			blocking,
		}}))
	}
	o.RunFor(sim.Second)
	fired := o.Sim.Fired()
	allocs := testing.AllocsPerRun(1, func() {
		for range windows {
			o.RunFor(100 * sim.Millisecond)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations in %d windows of 100 ms of sleep, read and write loops, want 0", allocs, windows)
	}
	if o.Sim.Fired() == fired {
		t.Fatal("no event fired")
	}
}

// BenchmarkTransition times the scheduler's transitions: one op is 100 ms
// of virtual time of the three looping threads of loopingOS.
func BenchmarkTransition(b *testing.B) {
	o := loopingOS(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.RunFor(100 * sim.Millisecond)
	}
}

// callFunc adapts a closure to sim.Caller for tests.
type callFunc func()

func (f callFunc) Fire(sim.Time) { f() }
