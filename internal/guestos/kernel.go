package guestos

import (
	"fmt"

	"vmdg/internal/cost"
	"vmdg/internal/sim"
)

// Guest kernel overhead charges, in kernel-class operations. They model the
// privileged work that full virtualization amplifies: context switches and
// interrupt delivery trap into the VMM on every occurrence.
const (
	ctxSwitchOps   = 4000 // save/restore, runqueue, TLB effects
	interruptOps   = 3000 // IRQ entry, handler body, wake-up, iret
	idleEntryOps   = 800  // schedule() into the idle loop, hlt
	timesliceCycle = 24e6 // 10 ms guest round-robin slice at 2.4 GHz
)

// BlockDevice is the disk the guest kernel's filesystem sits on: either
// raw hardware (native baseline) or a VMM's emulated drive.
type BlockDevice interface {
	// Submit reads or writes bytes at the device offset and fires done
	// when they land (an interrupt, from the guest's point of view).
	// done fires from a later event, never inside Submit.
	Submit(off, bytes int64, write bool, done sim.Caller)
}

// NetDevice is the guest's NIC: either effectively the physical adapter
// (native) or an emulated/NATed virtual device. It carries each Packet
// as a value and hands it to the packet's Endpoint on arrival, so a
// device can keep the packet in a recycled frame instead of a closure.
type NetDevice interface {
	// SendSegment pushes p toward the LAN; p.To.Deliver(p) runs at the
	// remote station once the frame traverses the device path and the
	// physical link.
	SendSegment(p Packet)
	// ReturnSegment carries p from the remote station back to this
	// guest; p.To.Deliver(p) runs when it reaches the guest stack.
	ReturnSegment(p Packet)
}

// Packet is one IP packet on its way across a NetDevice.
type Packet struct {
	// IPBytes is the IP packet size, headers included.
	IPBytes int64
	// To receives the packet at the far end of the device.
	To Endpoint
	// N is the TCP byte count: the payload of a data segment, or the
	// bytes an ACK covers.
	N int64
	// Datagram is a UDP packet's payload.
	Datagram Datagram
}

// Endpoint is where a Packet arrives: the TCP peer, a connection's ACK
// end, or a UDP socket's remote or local end. Each is a pointer alias
// of the state it updates, so addressing a packet allocates nothing.
// Deliver takes the packet by value: a pointer passed through the
// interface would make every packet escape to the heap.
type Endpoint interface {
	Deliver(p Packet)
}

// ClockSource supplies the guest's notion of time. Under a VMM this drifts
// when the vCPU is descheduled (ticks are lost); natively it is exact.
type ClockSource interface {
	GuestNow() sim.Time
}

// ExactClock is a ClockSource with no drift, for native execution.
type ExactClock struct{ Sim *sim.Simulator }

// GuestNow returns true simulation time.
func (c ExactClock) GuestNow() sim.Time { return c.Sim.Now() }

type gstate int

const (
	gRunnable gstate = iota
	gBlocked
	gDone
)

// GThread is a guest-level thread.
type GThread struct {
	Name  string
	prog  cost.Program
	state gstate

	// carryCycles and carryMix are the unexecuted remainder of a compute
	// step that was split at a timeslice boundary. Only Kind, Cycles and
	// Mix of a compute step are ever read downstream, so they are all a
	// carried step needs.
	carryCycles float64
	carryMix    cost.Mix

	// pending counts the device requests a thread blocked on a read or
	// an fsync still waits on.
	pending int

	kernel *Kernel
}

// sleepEnd ends a guest thread's sleep: its sim.Caller, a pointer alias
// of GThread, so a sleep allocates nothing.
type sleepEnd GThread

// Fire implements sim.Caller: the thread wakes, and the timer interrupt
// that woke it enters the kernel.
func (e *sleepEnd) Fire(sim.Time) {
	k := e.kernel
	k.makeRunnable((*GThread)(e))
	k.interruptEntry()
}

// Finished reports whether the guest thread's program has ended.
func (g *GThread) Finished() bool { return g.state == gDone }

func (g *GThread) String() string {
	return fmt.Sprintf("gthread{%s state=%d}", g.Name, int(g.state))
}

// Kernel is the guest operating system instance.
type Kernel struct {
	Sim   *sim.Simulator
	FS    *FileSystem
	Net   *NetStack
	Clock ClockSource

	threads []*GThread
	runq    []*GThread
	cur     *GThread

	sliceLeft float64 // cycles remaining in cur's timeslice

	pendingKernel float64 // kernel-class ops to emit before the next step

	// wake notifies the hosting layer that an interrupt arrived while the
	// vCPU may be halted.
	wake func()

	// Stats
	CtxSwitches uint64
	Interrupts  uint64
}

// KernelConfig wires the kernel's devices.
type KernelConfig struct {
	Sim   *sim.Simulator
	Disk  BlockDevice // nil if the workload does no disk I/O
	NIC   NetDevice   // nil if the workload does no networking
	Clock ClockSource // defaults to ExactClock
	// CacheBytes is the page-cache capacity; defaults to 2/3 of the
	// paper's 300 MB guest RAM.
	CacheBytes int64
}

// NewKernel boots a guest kernel.
func NewKernel(cfg KernelConfig) *Kernel {
	if cfg.Sim == nil {
		panic("guestos: KernelConfig.Sim is required")
	}
	k := &Kernel{Sim: cfg.Sim}
	if cfg.Clock != nil {
		k.Clock = cfg.Clock
	} else {
		k.Clock = ExactClock{Sim: cfg.Sim}
	}
	cache := cfg.CacheBytes
	if cache == 0 {
		cache = 200 << 20
	}
	k.FS = newFileSystem(k, cfg.Disk, cache)
	k.Net = newNetStack(k, cfg.NIC)
	return k
}

// SetWake installs the interrupt notification used by the hosting layer to
// learn that a halted vCPU must resume. The VMM points this at the host
// scheduler's Unblock; pure-guest tests may leave it unset.
func (k *Kernel) SetWake(fn func()) { k.wake = fn }

// SpawnG adds a guest thread executing prog. Spawning into an idle (halted)
// guest raises a wake so the hosting layer resumes the vCPU.
func (k *Kernel) SpawnG(name string, prog cost.Program) *GThread {
	g := &GThread{Name: name, prog: prog, kernel: k}
	k.threads = append(k.threads, g)
	k.runq = append(k.runq, g)
	if k.wake != nil {
		k.wake()
	}
	return g
}

// AllFinished reports whether every guest thread has exited.
func (k *Kernel) AllFinished() bool {
	for _, g := range k.threads {
		if g.state != gDone {
			return false
		}
	}
	return len(k.threads) > 0
}

// GuestNow exposes the guest's clock (drifting under a VMM).
func (k *Kernel) GuestNow() sim.Time { return k.Clock.GuestNow() }

// charge queues kernel-class operations to be emitted as compute before
// the next program step; this is how FS/net/scheduler overhead reaches the
// vCPU stream.
func (k *Kernel) charge(ops float64) { k.pendingKernel += ops }

// interruptEntry accounts for an interrupt (device completion) and pokes
// the hosting layer in case the vCPU is halted.
func (k *Kernel) interruptEntry() {
	k.Interrupts++
	k.charge(interruptOps)
	if k.wake != nil {
		k.wake()
	}
}

// makeRunnable transitions a blocked guest thread back onto the run queue.
func (k *Kernel) makeRunnable(g *GThread) {
	if g.state != gBlocked {
		panic(fmt.Sprintf("guestos: makeRunnable of %v", g))
	}
	g.state = gRunnable
	k.runq = append(k.runq, g)
}

// blockCur parks the current thread; the caller has arranged a completion
// that will call makeRunnable.
func (k *Kernel) blockCur() {
	k.cur.state = gBlocked
	k.cur = nil
}

// Next implements cost.Program, producing the vCPU instruction stream.
func (k *Kernel) Next() (cost.Step, bool) {
	for spins := 0; ; spins++ {
		if spins > 1<<20 {
			panic("guestos: kernel made no progress")
		}
		// Deliver queued kernel overhead first.
		if k.pendingKernel > 0 {
			ops := k.pendingKernel
			k.pendingKernel = 0
			return cost.Step{
				Kind:   cost.StepCompute,
				Cycles: ops * cost.CPIKernel,
				Mix:    cost.Mix{Kernel: 1},
			}, true
		}
		// Pick a thread if none is current.
		if k.cur == nil {
			if len(k.runq) == 0 {
				if k.AllFinished() {
					return cost.Step{}, false // guest workload complete
				}
				// All threads blocked: idle loop, halt until interrupt.
				k.charge(idleEntryOps)
				return cost.Step{Kind: cost.StepHalt}, true
			}
			k.cur = k.runq[0]
			k.runq = k.runq[:copy(k.runq, k.runq[1:])]
			k.sliceLeft = timesliceCycle
			k.CtxSwitches++
			k.charge(ctxSwitchOps)
			continue
		}
		// Resume a split compute step, if any.
		var step cost.Step
		if g := k.cur; g.carryCycles > 0 {
			step = cost.Step{Kind: cost.StepCompute, Cycles: g.carryCycles, Mix: g.carryMix}
			g.carryCycles = 0
		} else {
			var ok bool
			step, ok = g.prog.Next()
			if !ok {
				k.cur.state = gDone
				k.cur = nil
				continue
			}
		}
		if k.handleStep(&step) {
			return step, true
		}
	}
}

// handleStep services one guest-thread step in place. It reports true when
// step, possibly cut at the timeslice boundary, is to be emitted on the
// vCPU stream, and false when the step was absorbed (e.g. an asynchronous
// FS operation that blocked the thread).
func (k *Kernel) handleStep(step *cost.Step) bool {
	switch step.Kind {
	case cost.StepCompute:
		if step.Cycles <= 0 {
			return false
		}
		if len(k.runq) == 0 {
			// Sole runnable thread: no reason to slice; renew in place.
			if step.Cycles >= k.sliceLeft {
				k.sliceLeft = timesliceCycle
			} else {
				k.sliceLeft -= step.Cycles
			}
			return true
		}
		if step.Cycles > k.sliceLeft {
			// Split at the timeslice boundary and rotate.
			cur := k.cur
			cur.carryCycles, cur.carryMix = step.Cycles-k.sliceLeft, step.Mix
			step.Cycles = k.sliceLeft
			cur.state = gRunnable
			k.runq = append(k.runq, cur)
			k.cur = nil
			return true
		}
		k.sliceLeft -= step.Cycles
		return true

	case cost.StepDiskRead:
		if blocked := k.FS.read(k.cur, step.File, step.Offset, step.Bytes); blocked {
			k.blockCur()
		}
		return false

	case cost.StepDiskWrite:
		if blocked := k.FS.write(k.cur, step.File, step.Offset, step.Bytes); blocked {
			k.blockCur()
		}
		return false

	case cost.StepDiskSync:
		if blocked := k.FS.fsync(k.cur, step.File); blocked {
			k.blockCur()
		}
		return false

	case cost.StepNetSend:
		if blocked := k.Net.send(k.cur, step.Conn, step.Bytes); blocked {
			k.blockCur()
		}
		return false

	case cost.StepNetRecv:
		if blocked := k.Net.recv(k.cur, step.Conn, step.Bytes); blocked {
			k.blockCur()
		}
		return false

	case cost.StepSleep:
		g := k.cur
		k.blockCur()
		k.Sim.Schedule(k.Sim.Now()+step.Dur, "guest-sleep", (*sleepEnd)(g))
		return false

	case cost.StepClock:
		// The cycle cost was charged at capture; the (possibly drifted)
		// value is observable via GuestNow. Nothing to emit.
		return false

	case cost.StepDropCaches:
		k.FS.DropCaches()
		k.charge(float64(4 * ctxSwitchOps)) // page-table walks, LRU teardown
		return false

	default:
		panic(fmt.Sprintf("guestos: unsupported guest step %v", step.Kind))
	}
}
