package hostos

import (
	"fmt"

	"vmdg/internal/cost"
	"vmdg/internal/sim"
)

type threadState int

const (
	stateReady threadState = iota
	stateRunning
	stateBlocked
	stateDone
)

var stateNames = [...]string{"ready", "running", "blocked", "done"}

func (s threadState) String() string { return stateNames[s] }

// Thread is a schedulable entity executing a cost.Program.
type Thread struct {
	Name string
	Prio Priority
	Proc *Process

	// OnExit fires when the program ends.
	OnExit func()

	// Affinity, if non-zero, is a bit mask of cores the thread may run
	// on (bit i = core i) — SetProcessAffinityMask semantics. Zero means
	// all cores. Desktop-grid volunteers use it to confine a VM to a
	// subset of the machine.
	Affinity uint64

	// Victim, if set, lends this thread its core. When this thread
	// becomes ready and no core is idle, a running Victim of lower
	// priority parks on its core, unless the core already holds a parked
	// thread or Affinity excludes it, and resumes there once this thread
	// leaves the core. A VMM service thread names its vCPU, so device
	// emulation and timer work displace the VM they serve, not an
	// unrelated process — unless the vCPU is itself starved, in which
	// case the work lands wherever the scheduler can place it (the
	// Figure 7 mechanism).
	Victim *Thread

	os    *OS
	prog  cost.Program
	state threadState
	core  int // valid while running

	// Current compute step, expanded progress model.
	remaining float64 // cycles left in the current compute step
	mix       cost.Mix
	rate      float64  // cycles/sec at last refresh
	settled   sim.Time // time up to which remaining reflects progress

	sliceEnd sim.Time // quantum expiry for the current dispatch

	// Accounting.
	cpuTime    sim.Time // time spent dispatched on a core
	cyclesDone float64  // compute cycles retired
	dispatches uint64
	preempted  uint64
}

// The pointer aliases of Thread are its sim.Callers, so a blocking step
// schedules its wake-up without allocating.
type (
	// threadWake unblocks the thread: a disk completion or a sleep's end.
	threadWake Thread
	// threadExit runs the thread's OnExit.
	threadExit Thread
)

// Fire implements sim.Caller.
func (w *threadWake) Fire(sim.Time) { w.os.Unblock((*Thread)(w)) }

// Fire implements sim.Caller.
func (x *threadExit) Fire(sim.Time) { x.OnExit() }

// State description helpers (primarily for tests and traces).

// Running reports whether the thread is currently dispatched on a core.
func (t *Thread) Running() bool { return t.state == stateRunning }

// Core returns the core the thread last ran on (valid while Running).
func (t *Thread) Core() int { return t.core }

// Blocked reports whether the thread is waiting on I/O, sleep, or a wake.
func (t *Thread) Blocked() bool { return t.state == stateBlocked }

// Finished reports whether the thread's program has ended.
func (t *Thread) Finished() bool { return t.state == stateDone }

// CPUTime returns the accumulated time the thread has been dispatched.
// Call OS.Settle first for an instantaneously exact figure.
func (t *Thread) CPUTime() sim.Time { return t.cpuTime }

// CyclesDone returns compute cycles retired so far.
func (t *Thread) CyclesDone() float64 { return t.cyclesDone }

// Dispatches returns how many times the thread was placed on a core.
func (t *Thread) Dispatches() uint64 { return t.dispatches }

// Preemptions returns how many times the thread was involuntarily removed
// from a core by a higher-priority thread.
func (t *Thread) Preemptions() uint64 { return t.preempted }

// allowedOn reports whether the affinity mask admits the given core.
func (t *Thread) allowedOn(core int) bool {
	return t.Affinity == 0 || t.Affinity&(1<<uint(core)) != 0
}

func (t *Thread) String() string {
	return fmt.Sprintf("thread{%s %v %v}", t.Name, t.Prio, t.state)
}

// Process groups threads for accounting, mirroring an OS process. VM
// monitors, benchmarks, and BOINC clients are each a Process.
type Process struct {
	Name    string
	Threads []*Thread
}

// CPUTime sums the CPU time of all threads in the process.
func (p *Process) CPUTime() sim.Time {
	var total sim.Time
	for _, t := range p.Threads {
		total += t.cpuTime
	}
	return total
}

// CyclesDone sums retired compute cycles across the process's threads.
func (p *Process) CyclesDone() float64 {
	var total float64
	for _, t := range p.Threads {
		total += t.cyclesDone
	}
	return total
}

// Finished reports whether every thread in the process has exited.
func (p *Process) Finished() bool {
	for _, t := range p.Threads {
		if t.state != stateDone {
			return false
		}
	}
	return true
}
