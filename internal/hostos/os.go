package hostos

import (
	"fmt"

	"vmdg/internal/cost"
	"vmdg/internal/hw"
	"vmdg/internal/sim"
)

// quantum approximates the Windows XP workstation timeslice
// (2 clock ticks × ~15.6 ms, foreground-boosted threads get more; a single
// representative value suffices for the ratios studied here).
const quantum = 30 * sim.Millisecond

// zeroStepLimit bounds how many zero-cost steps a thread may retire inside
// one scheduler event before the OS declares the program defective. It
// protects the simulator from spinning on a degenerate infinite program.
const zeroStepLimit = 1 << 20

type coreState struct {
	t     *Thread
	event sim.Handle // pending step-done-or-quantum event
	timer coreTimer  // event's Caller
	// parked holds a Victim that lent this core to a higher-priority
	// thread: the borrower takes the core's slot and the parked thread
	// resumes here as soon as the core frees, without re-entering the
	// ready queues (VMM service work runs in its VM's scheduling context).
	parked *Thread
}

// coreTimer fires a core's step-done-or-quantum event. Boot sizes
// OS.cores once, so a pointer to a core's timer stays valid and
// refreshAll schedules it without allocating.
type coreTimer struct {
	o    *OS
	core int
}

// Fire implements sim.Caller.
func (c *coreTimer) Fire(sim.Time) { c.o.coreEvent(c.core) }

// OS is the host operating system instance for one machine.
type OS struct {
	M   *hw.Machine
	Sim *sim.Simulator

	cores []coreState
	ready [numPrio][]*Thread
	procs []*Process

	idleTime []sim.Time // per-core idle accumulation
	lastIdle []sim.Time // per-core: when the core last became idle

	shares, rates []float64 // refreshAll's per-core buffers, reused
}

// Boot creates the OS for machine m.
func Boot(m *hw.Machine) *OS {
	o := &OS{
		M:        m,
		Sim:      m.Sim,
		cores:    make([]coreState, m.CPU.Cores),
		idleTime: make([]sim.Time, m.CPU.Cores),
		lastIdle: make([]sim.Time, m.CPU.Cores),
		shares:   make([]float64, m.CPU.Cores),
		rates:    make([]float64, m.CPU.Cores),
	}
	for i := range o.cores {
		o.cores[i].timer = coreTimer{o: o, core: i}
	}
	return o
}

// NewProcess registers an empty process.
func (o *OS) NewProcess(name string) *Process {
	p := &Process{Name: name}
	o.procs = append(o.procs, p)
	return p
}

// Spawn creates a thread in process p running prog at priority prio and
// makes it immediately runnable.
func (o *OS) Spawn(p *Process, name string, prio Priority, prog cost.Program) *Thread {
	if !prio.Valid() {
		panic(fmt.Sprintf("hostos: invalid priority %d", int(prio)))
	}
	t := &Thread{Name: name, Prio: prio, Proc: p, os: o, prog: prog, state: stateReady}
	p.Threads = append(p.Threads, t)
	o.transition(func() {
		if !o.advance(t) {
			return // program blocked or exited on its very first step
		}
		o.makeReady(t)
	})
	return t
}

// Unblock marks a blocked thread runnable again. Subsystems that accepted
// a blocking step (disk, network, timers) call this exactly once per block.
func (o *OS) Unblock(t *Thread) {
	if t.state != stateBlocked {
		panic(fmt.Sprintf("hostos: Unblock of %v", t))
	}
	o.transition(func() {
		t.state = stateReady
		if !o.advance(t) {
			return
		}
		o.makeReady(t)
	})
}

// Settle brings all running threads' accounting up to the current instant.
// Call before reading CPUTime/CyclesDone mid-run.
func (o *OS) Settle() { o.settleAll() }

// IdleTime reports accumulated idle time for core i.
func (o *OS) IdleTime(core int) sim.Time {
	it := o.idleTime[core]
	if o.cores[core].t == nil {
		it += o.Sim.Now() - o.lastIdle[core]
	}
	return it
}

// ----- scheduler internals -----

// transition wraps every scheduling mutation: settle progress, mutate
// dispatch state, then refresh rates and completion events machine-wide
// (a dispatch change on one core shifts bus contention on all cores).
func (o *OS) transition(mutate func()) {
	o.settleAll()
	mutate()
	o.refreshAll()
}

func (o *OS) settleAll() {
	now := o.Sim.Now()
	for i := range o.cores {
		t := o.cores[i].t
		if t == nil {
			continue
		}
		dt := now - t.settled
		if dt <= 0 {
			continue
		}
		done := t.rate * dt.Seconds()
		if done > t.remaining {
			done = t.remaining
		}
		t.remaining -= done
		t.cyclesDone += done
		t.cpuTime += dt
		t.settled = now
	}
}

// refreshAll re-arms each busy core's event in core order, so sequence
// numbers go out in the same order as a Cancel plus Schedule per core,
// and cancels each idle core's event and zeroes its Handle, so an idle
// core costs nothing on later transitions. Rearm fails, and a fresh
// event is scheduled, when the core was idle or when its event is the
// one firing (recycled before it fired).
func (o *OS) refreshAll() {
	now := o.Sim.Now()
	for i := range o.cores {
		if t := o.cores[i].t; t != nil {
			o.shares[i] = t.mix.Mem
		} else {
			o.shares[i] = -1
		}
	}
	o.M.CPU.Rates(o.shares, o.rates)
	for i := range o.cores {
		c := &o.cores[i]
		t := c.t
		if t == nil {
			if c.event != (sim.Handle{}) {
				c.event.Cancel()
				c.event = sim.Handle{}
			}
			continue
		}
		t.rate = o.rates[i]
		t.settled = now
		finish := now + sim.FromSeconds(t.remaining/t.rate)
		if finish <= now {
			// Sub-nanosecond residue: force progress so rounding can never
			// produce a same-timestamp reschedule livelock.
			finish = now + 1
		}
		wake := finish
		label := "step-done"
		if t.sliceEnd < finish {
			wake = t.sliceEnd
			label = "quantum"
		}
		if !o.Sim.Rearm(c.event, wake, label) {
			c.event = o.Sim.Schedule(wake, label, &c.timer)
		}
	}
}

// coreEvent fires when the running thread either completes its compute
// step or exhausts its quantum, whichever came first.
func (o *OS) coreEvent(core int) {
	o.transition(func() {
		c := &o.cores[core]
		t := c.t
		if t == nil {
			return // defensive: refreshAll cancels an idle core's event
		}
		// Completion epsilon must exceed the worst-case event-time rounding
		// error of 0.5 ns × rate (≈1.2 cycles at 2.4 GHz), or a step can
		// land just above zero and masquerade as a quantum expiry.
		if t.remaining <= 2 { // step complete (within rounding)
			t.remaining = 0
			if o.advance(t) {
				// More compute: keep running, fresh completion below. The
				// thread keeps its core; quantum continues.
				return
			}
			// advance blocked or exited the thread; free the core.
			o.undispatch(core, false)
			o.fillCore(core)
			return
		}
		// Quantum expiry: round-robin only if an equal-or-higher priority
		// thread that may run here waits; otherwise renew the slice.
		if o.hasReadyAtLeastFor(t.Prio, core) {
			o.undispatch(core, true)
			o.makeReadyBack(t)
			o.fillCore(core)
			return
		}
		t.sliceEnd = o.Sim.Now() + quantum
	})
}

// advance pulls steps from t's program until it produces compute work,
// blocks, or exits. Returns true if t has compute work and should be
// runnable; false if it blocked or exited (state already updated).
func (o *OS) advance(t *Thread) bool {
	for spins := 0; ; spins++ {
		if spins > zeroStepLimit {
			panic(fmt.Sprintf("hostos: thread %s made no progress over %d steps", t.Name, spins))
		}
		step, ok := t.prog.Next()
		if !ok {
			t.state = stateDone
			if t.OnExit != nil {
				// Fire after the transition completes so the callback sees
				// settled accounting; zero delay keeps ordering deterministic.
				o.Sim.Schedule(o.Sim.Now(), "thread-exit", (*threadExit)(t))
			}
			return false
		}
		if step.Kind == cost.StepCompute {
			if step.Cycles <= 0 {
				continue
			}
			t.remaining = step.Cycles
			t.mix = step.Mix
			return true
		}
		if o.handle(t, step) {
			t.state = stateBlocked
			return false
		}
	}
}

// handle services a non-compute step. It reports whether the thread
// blocks; whoever owns the wake-up then calls Unblock exactly once.
func (o *OS) handle(t *Thread, step cost.Step) (blocked bool) {
	switch step.Kind {
	case cost.StepDiskRead:
		o.M.Disk.Submit(step.File, step.Offset, step.Bytes, false, (*threadWake)(t))
		return true
	case cost.StepDiskWrite, cost.StepDiskSync:
		o.M.Disk.Submit(step.File, step.Offset, step.Bytes, true, (*threadWake)(t))
		return true
	case cost.StepSleep:
		o.Sim.Schedule(o.Sim.Now()+step.Dur, "sleep-wake", (*threadWake)(t))
		return true
	case cost.StepHalt:
		return true // parked until the owner of the wake calls Unblock
	case cost.StepClock:
		return false // host clock reads are exact and instantaneous here
	default:
		panic(fmt.Sprintf("hostos: thread %s issued %v, which a host thread cannot take", t.Name, step.Kind))
	}
}

func (o *OS) makeReady(t *Thread) {
	t.state = stateReady
	// Try an idle core first (affinity-permitting).
	for i := range o.cores {
		if o.cores[i].t == nil && t.allowedOn(i) {
			o.dispatch(t, i)
			return
		}
	}
	// A running Victim lends its core when it is preemptible: it parks
	// on the core and resumes there when the core frees.
	if v := t.Victim; v != nil && v.Running() {
		if c := v.core; t.allowedOn(c) && o.cores[c].t != nil &&
			o.cores[c].t.Prio < t.Prio && o.cores[c].parked == nil {
			o.undispatch(c, true)
			v.state = stateReady
			o.cores[c].parked = v
			o.dispatch(t, c)
			return
		}
	}
	// Otherwise preempt the lowest-priority running thread, if strictly
	// lower; the victim keeps its turn at the front of its queue.
	victimCore, victimPrio := -1, t.Prio
	for i := range o.cores {
		if !t.allowedOn(i) {
			continue
		}
		if rp := o.cores[i].t.Prio; rp < victimPrio {
			victimCore, victimPrio = i, rp
		}
	}
	if victimCore >= 0 {
		v := o.cores[victimCore].t
		o.undispatch(victimCore, true)
		o.ready[v.Prio] = append([]*Thread{v}, o.ready[v.Prio]...) // front: keeps its turn
		v.state = stateReady
		o.dispatch(t, victimCore)
		return
	}
	o.ready[t.Prio] = append(o.ready[t.Prio], t)
}

func (o *OS) makeReadyBack(t *Thread) {
	t.state = stateReady
	o.ready[t.Prio] = append(o.ready[t.Prio], t)
}

func (o *OS) dispatch(t *Thread, core int) {
	if was := o.cores[core].t; was != nil {
		panic(fmt.Sprintf("hostos: dispatch onto busy core %d (%v)", core, was))
	}
	o.idleTime[core] += o.Sim.Now() - o.lastIdle[core]
	o.cores[core].t = t
	t.state = stateRunning
	t.core = core
	t.settled = o.Sim.Now()
	t.sliceEnd = o.Sim.Now() + quantum
	t.dispatches++
}

// undispatch removes the running thread from core. preempt marks the
// removal involuntary for accounting. The core's event stays armed: every
// undispatch runs inside a transition, whose refreshAll cancels the event
// if the core stays idle or re-arms it in place with the next sequence
// number, just as a fresh Schedule would, so pop order is unchanged and
// a core that is refilled at once costs one heap fix instead of a
// removal and an insertion.
func (o *OS) undispatch(core int, preempt bool) {
	c := &o.cores[core]
	t := c.t
	if t == nil {
		panic("hostos: undispatch of idle core")
	}
	if preempt {
		t.preempted++
	}
	c.t = nil
	o.lastIdle[core] = o.Sim.Now()
}

// fillCore dispatches the highest-priority ready thread onto a free core.
// A Victim parked on the core reclaims it first — ahead of its own
// priority queue, but not past strictly higher-priority ready work: on a
// single-core machine an idle-priority vCPU parked by its VMM service
// thread would otherwise monopolize the core while the owner's
// normal-priority work starved in the ready queue.
func (o *OS) fillCore(core int) {
	if o.cores[core].t != nil {
		return
	}
	if v := o.cores[core].parked; v != nil {
		o.cores[core].parked = nil
		if !o.hasReadyAbove(v.Prio, core) {
			o.dispatch(v, core)
			return
		}
		o.ready[v.Prio] = append([]*Thread{v}, o.ready[v.Prio]...) // front: keeps its turn
	}
	for p := numPrio - 1; p >= 0; p-- {
		q := o.ready[p]
		for i, t := range q {
			if !t.allowedOn(core) {
				continue // affinity-bound thread waits for its core
			}
			o.ready[p] = append(q[:i], q[i+1:]...)
			o.dispatch(t, core)
			return
		}
	}
}

// hasReadyAbove reports whether a ready thread of priority strictly
// above p whose affinity admits the given core is waiting.
func (o *OS) hasReadyAbove(p Priority, core int) bool {
	if p+1 >= numPrio {
		return false
	}
	return o.hasReadyAtLeastFor(p+1, core)
}

// hasReadyAtLeastFor reports whether a ready thread of priority ≥ p whose
// affinity admits the given core is waiting.
func (o *OS) hasReadyAtLeastFor(p Priority, core int) bool {
	for q := p; q < numPrio; q++ {
		for _, t := range o.ready[q] {
			if t.allowedOn(core) {
				return true
			}
		}
	}
	return false
}

// RunFor advances the simulation by d of virtual time.
func (o *OS) RunFor(d sim.Time) { o.Sim.RunUntil(o.Sim.Now() + d) }

// RunUntilFinished runs the simulation until the given process exits or
// the deadline passes; it reports whether the process finished.
func (o *OS) RunUntilFinished(p *Process, deadline sim.Time) bool {
	for o.Sim.Now() < deadline {
		next, ok := o.Sim.NextEventTime()
		if !ok {
			break
		}
		if next > deadline {
			break
		}
		o.Sim.RunUntil(next)
		if p.Finished() {
			return true
		}
	}
	return p.Finished()
}
