package hostos

import (
	"testing"
	"testing/quick"

	"vmdg/internal/cost"
	"vmdg/internal/hw"
	"vmdg/internal/sim"
)

// TestCPUTimeConservationProperty: for any random workload, total CPU time
// handed out can never exceed cores × elapsed wall time, and every
// thread's CPU time is bounded by wall time.
func TestCPUTimeConservationProperty(t *testing.T) {
	f := func(seed uint16, spec []uint8) bool {
		if len(spec) == 0 || len(spec) > 12 {
			return true
		}
		s := sim.New()
		m, err := hw.NewMachine(s, hw.Config{Seed: uint64(seed)})
		if err != nil {
			return false
		}
		o := Boot(m)
		p := o.NewProcess("load")
		var threads []*Thread
		for i, b := range spec {
			cycles := float64(b%100+1) * 1e7
			prio := Priority(int(b) % int(numPrio))
			mix := cost.Mix{Int: 1}
			if b%3 == 0 {
				mix = cost.Mix{Int: 0.4, Mem: 0.6}
			}
			mm := cost.NewMeter("w")
			mm.Ops(cost.Counts{IntOps: uint64(cycles)})
			if b%4 == 0 {
				mm.Sleep(sim.Time(b) * sim.Millisecond)
			}
			if b%5 == 0 {
				mm.DiskRead("f", int64(i)<<20, 1<<16)
			}
			prof := mm.Profile()
			// Overwrite the mix for variety.
			for j := range prof.Steps {
				if prof.Steps[j].Kind == cost.StepCompute {
					prof.Steps[j].Mix = mix
				}
			}
			threads = append(threads, o.Spawn(p, "w", prio, prof.Iter()))
		}
		s.Run()
		wall := s.Now()
		var total sim.Time
		for _, th := range threads {
			if !th.Finished() {
				return false
			}
			if th.CPUTime() > wall+sim.Microsecond {
				return false
			}
			total += th.CPUTime()
		}
		return total <= sim.Time(m.CPU.Cores)*wall+sim.Microsecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkConservationUnderContention: when more runnable threads exist
// than cores, no core idles — the wall time for N identical pure-int
// threads is exactly N×(single)/cores within a quantum of slack.
func TestWorkConservationUnderContention(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8} {
		s := sim.New()
		m, _ := hw.NewMachine(s, hw.Config{Seed: 3})
		o := Boot(m)
		p := o.NewProcess("load")
		cycles := 4.8e8 // 200 ms each
		for i := 0; i < n; i++ {
			prof := &cost.Profile{Name: "w", Steps: []cost.Step{
				{Kind: cost.StepCompute, Cycles: cycles, Mix: cost.Mix{Int: 1}},
			}}
			o.Spawn(p, "w", PrioNormal, prof.Iter())
		}
		s.Run()
		ideal := sim.FromSeconds(float64(n) * cycles / m.CPU.FreqHz / float64(m.CPU.Cores))
		slack := quantum + 10*sim.Millisecond
		if s.Now() < ideal-sim.Millisecond || s.Now() > ideal+slack {
			t.Errorf("n=%d: wall %v, ideal %v (+%v slack)", n, s.Now(), ideal, slack)
		}
	}
}

// TestVictimHintBorrowsAndRestores: a thread that names a Victim borrows
// the victim's core when it wakes; the victim parks on that core, out of
// the ready queues, and runs there again as soon as the borrower leaves.
// The thread on the other core is left alone.
func TestVictimHintBorrowsAndRestores(t *testing.T) {
	s := sim.New()
	m, _ := hw.NewMachine(s, hw.Config{Seed: 1})
	o := Boot(m)

	low := o.NewProcess("low")
	victim := o.Spawn(low, "victim", PrioNormal, cost.Loop(&cost.Profile{Name: "v", Steps: []cost.Step{
		{Kind: cost.StepCompute, Cycles: 1e7, Mix: cost.Mix{Int: 1}},
	}}))
	// A second normal thread occupies the other core.
	other := o.Spawn(low, "other", PrioNormal, cost.Loop(&cost.Profile{Name: "o", Steps: []cost.Step{
		{Kind: cost.StepCompute, Cycles: 1e7, Mix: cost.Mix{Int: 1}},
	}}))
	o.RunFor(10 * sim.Millisecond)
	c := victim.Core()

	// The service duty cycle sleeps 1 ms, then computes for 10 ms. Its
	// Victim is set while it sleeps, so its first wake borrows the core.
	svc := o.Spawn(o.NewProcess("svc"), "svc", PrioAboveNormal, cost.Loop(&cost.Profile{Name: "d", Steps: []cost.Step{
		{Kind: cost.StepSleep, Dur: sim.Millisecond},
		{Kind: cost.StepCompute, Cycles: 2.4e7, Mix: cost.Mix{Int: 1}}, // 10 ms
	}}))
	svc.Victim = victim

	o.RunFor(6 * sim.Millisecond) // mid-burst
	if !svc.Running() || svc.Core() != c {
		t.Fatalf("service thread %v does not hold the victim's core %d", svc, c)
	}
	if o.cores[c].parked != victim {
		t.Fatalf("victim not parked on core %d", c)
	}
	for _, q := range o.ready {
		for _, r := range q {
			if r == victim {
				t.Fatal("parked victim sits in a ready queue")
			}
		}
	}
	if !other.Running() || other.Preemptions() != 0 {
		t.Fatalf("other thread disturbed: %v, %d preemptions", other, other.Preemptions())
	}

	o.RunFor(5500 * sim.Microsecond) // the burst is over; the next wake is 1 ms off
	if !svc.Blocked() {
		t.Fatalf("service thread %v still busy after its burst", svc)
	}
	if !victim.Running() || victim.Core() != c {
		t.Fatalf("victim %v not restored to core %d", victim, c)
	}
}

// TestManyPrioritiesDrainInOrder: with one core's worth of sequential
// work per priority class, higher classes finish strictly earlier.
func TestManyPrioritiesDrainInOrder(t *testing.T) {
	s := sim.New()
	cpu := hw.CPU{Cores: 1, FreqHz: 2.4e9, BusK: 0} // single core: strict ordering
	m, err := hw.NewMachine(s, hw.Config{Seed: 2, CPU: cpu})
	if err != nil {
		t.Fatal(err)
	}
	o := Boot(m)
	p := o.NewProcess("mix")
	finish := map[Priority]sim.Time{}
	for _, prio := range []Priority{PrioIdle, PrioBelowNormal, PrioNormal, PrioAboveNormal, PrioHigh} {
		prio := prio
		prof := &cost.Profile{Name: "w", Steps: []cost.Step{
			{Kind: cost.StepCompute, Cycles: 2.4e7, Mix: cost.Mix{Int: 1}},
		}}
		th := o.Spawn(p, prio.String(), prio, prof.Iter())
		th.OnExit = func() { finish[prio] = s.Now() }
	}
	s.Run()
	order := []Priority{PrioHigh, PrioAboveNormal, PrioNormal, PrioBelowNormal, PrioIdle}
	for i := 1; i < len(order); i++ {
		if finish[order[i-1]] >= finish[order[i]] {
			t.Fatalf("%v (%v) did not finish before %v (%v)",
				order[i-1], finish[order[i-1]], order[i], finish[order[i]])
		}
	}
}

// TestPriorityStringAndValid covers the Priority helpers.
func TestPriorityStringAndValid(t *testing.T) {
	for p := PrioIdle; p < numPrio; p++ {
		if p.String() == "" || !p.Valid() {
			t.Errorf("priority %d misbehaves", int(p))
		}
	}
	if Priority(-1).Valid() || Priority(99).Valid() {
		t.Error("invalid priorities accepted")
	}
	if Priority(99).String() == "" {
		t.Error("unknown priority has empty String")
	}
}

// TestAffinityConfinesThread: a pinned thread only ever runs on its core,
// even under contention.
func TestAffinityConfinesThread(t *testing.T) {
	s := sim.New()
	m, _ := hw.NewMachine(s, hw.Config{Seed: 4})
	o := Boot(m)
	p := o.NewProcess("aff")
	// First spawn occupies core 0, so the pinned thread lands on core 1;
	// the mask then holds it there (affinity changes apply at the next
	// scheduling decision, as with a live SetThreadAffinityMask).
	o.Spawn(p, "placeholder", PrioNormal, cost.Loop(&cost.Profile{Name: "x", Steps: []cost.Step{
		{Kind: cost.StepCompute, Cycles: 5e6, Mix: cost.Mix{Int: 1}},
	}}))
	pinned := o.Spawn(p, "pinned", PrioNormal, cost.Loop(&cost.Profile{Name: "p", Steps: []cost.Step{
		{Kind: cost.StepCompute, Cycles: 5e6, Mix: cost.Mix{Int: 1}},
	}}))
	pinned.Affinity = 1 << 1 // core 1 only
	if pinned.Core() != 1 {
		t.Fatalf("setup: pinned thread on core %d", pinned.Core())
	}
	for i := 0; i < 2; i++ {
		o.Spawn(p, "free", PrioNormal, cost.Loop(&cost.Profile{Name: "f", Steps: []cost.Step{
			{Kind: cost.StepCompute, Cycles: 5e6, Mix: cost.Mix{Int: 1}},
		}}))
	}
	for i := 0; i < 200; i++ {
		next, ok := s.NextEventTime()
		if !ok {
			break
		}
		s.RunUntil(next)
		if pinned.Running() && pinned.Core() != 1 {
			t.Fatalf("pinned thread ran on core %d", pinned.Core())
		}
	}
}

// TestAffinityIdleCoreRespected: a thread pinned to a busy core waits even
// while another core idles.
func TestAffinityIdleCoreRespected(t *testing.T) {
	s := sim.New()
	m, _ := hw.NewMachine(s, hw.Config{Seed: 5})
	o := Boot(m)
	p := o.NewProcess("aff")
	// Occupy core 0 (first spawn lands there).
	hog := o.Spawn(p, "hog", PrioNormal, cost.Loop(&cost.Profile{Name: "h", Steps: []cost.Step{
		{Kind: cost.StepCompute, Cycles: 1e7, Mix: cost.Mix{Int: 1}},
	}}))
	if hog.Core() != 0 {
		t.Fatalf("hog on core %d", hog.Core())
	}
	// Spawn a thread pinned to core 0: it must wait despite core 1 idling.
	prof := &cost.Profile{Name: "w", Steps: []cost.Step{
		{Kind: cost.StepCompute, Cycles: 1e6, Mix: cost.Mix{Int: 1}},
	}}
	waiter := &Thread{Name: "waiter", Prio: PrioNormal, Proc: p, prog: prof.Iter(), state: stateReady, Affinity: 1}
	p.Threads = append(p.Threads, waiter)
	o.transition(func() {
		if o.advance(waiter) {
			o.makeReady(waiter)
		}
	})
	if waiter.Running() {
		t.Fatal("pinned thread dispatched onto the wrong (idle) core")
	}
	o.RunFor(100 * sim.Millisecond)
	o.Settle()
	if waiter.CPUTime() == 0 {
		t.Fatal("pinned thread starved entirely; rotation on its core never happened")
	}
}

// TestParkedThreadDoesNotStarveHigherPriorityReady: on a single-core
// machine, an idle-priority thread repeatedly parked by an AboveNormal
// duty cycle that names it as Victim (the VMM service pattern) must not
// reclaim the core past normal-priority ready work. Regression test for
// the single-core volunteer-host starvation fixed in fillCore.
func TestParkedThreadDoesNotStarveHigherPriorityReady(t *testing.T) {
	s := sim.New()
	m, err := hw.NewMachine(s, hw.Config{CPU: hw.CPU{Cores: 1, FreqHz: 2.4e9, BusK: 0.45}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	o := Boot(m)

	vcpu := o.NewProcess("vm")
	idle := o.Spawn(vcpu, "vcpu", PrioIdle, cost.Loop(&cost.Profile{Name: "v", Steps: []cost.Step{
		{Kind: cost.StepCompute, Cycles: 1e7, Mix: cost.Mix{Int: 1}},
	}}))

	// The service duty cycle: 13.6 ms of work then 6.4 ms of sleep at
	// AboveNormal, always preferring the vCPU's core.
	svc := o.NewProcess("svc")
	duty := cost.Loop(&cost.Profile{Name: "d", Steps: []cost.Step{
		{Kind: cost.StepCompute, Cycles: 0.0136 * 2.4e9, Mix: cost.Mix{Int: 1}},
		{Kind: cost.StepSleep, Dur: 6400 * sim.Microsecond},
	}})
	th := o.Spawn(svc, "svc", PrioAboveNormal, duty)
	th.Victim = idle

	// The owner's normal-priority burst: 40 ms of compute, issued after
	// the park/unpark cycle is in full swing.
	user := o.NewProcess("user")
	finished := sim.Time(-1)
	s.Schedule(s.Now()+100*sim.Millisecond, "spawn-burst", callFunc(func() {
		b := o.Spawn(user, "burst", PrioNormal, (&cost.Profile{Name: "b", Steps: []cost.Step{
			{Kind: cost.StepCompute, Cycles: 0.040 * 2.4e9, Mix: cost.Mix{Int: 1}},
		}}).Iter())
		b.OnExit = func() { finished = s.Now() }
	}))
	o.RunFor(2 * sim.Second)
	if finished < 0 {
		t.Fatal("normal-priority burst starved behind the parked idle thread")
	}
	o.Settle()
	if idle.CyclesDone() == 0 {
		t.Fatal("idle thread never ran at all")
	}
}
