package cost

import "vmdg/internal/sim"

// Meter captures the operation stream of a real benchmark run into a
// Profile. Benchmark code calls the counting methods as it executes its
// actual algorithm. Compute work accumulates into one step, whatever its
// mix, and a step is cut only at maxStepCycles and before each I/O,
// sleep, clock or drop-caches step, which keeps profiles compact (a full
// 7z benchmark pass collapses to a few hundred steps instead of
// millions).
type Meter struct {
	name    string
	steps   []Step
	pending Counts // compute ops not yet flushed into a step
}

// maxStepCycles caps step granularity so schedulers can preempt replayed
// programs mid-phase with realistic quantum resolution: ~20 ms at 2.4 GHz,
// finer than any quantum.
const maxStepCycles = 50e6

// NewMeter returns a Meter for a benchmark with the given name.
func NewMeter(name string) *Meter { return &Meter{name: name} }

// Ops records a raw operation tally (the common path for instrumented
// algorithm kernels).
func (m *Meter) Ops(c Counts) {
	m.pending.Add(c)
	if m.pending.Cycles() >= maxStepCycles {
		m.flush()
	}
}

// Int records n integer ALU operations.
func (m *Meter) Int(n uint64) { m.Ops(Counts{IntOps: n}) }

// FP records n floating point operations.
func (m *Meter) FP(n uint64) { m.Ops(Counts{FPOps: n}) }

// Mem records n memory operations.
func (m *Meter) Mem(n uint64) { m.Ops(Counts{MemOps: n}) }

// Kernel records n guest-kernel-path instructions (syscall entry/exit,
// page-fault handling, interrupt bodies).
func (m *Meter) Kernel(n uint64) { m.Ops(Counts{KernelOps: n}) }

// flush converts pending counts into one or more compute steps.
func (m *Meter) flush() {
	cycles := m.pending.Cycles()
	if cycles <= 0 {
		return
	}
	mix := m.pending.Mix()
	for cycles > 0 {
		c := cycles
		if c > maxStepCycles {
			c = maxStepCycles
		}
		m.steps = append(m.steps, Step{Kind: StepCompute, Cycles: c, Mix: mix})
		cycles -= c
	}
	m.pending = Counts{}
}

// syscallOverheadOps is the guest-kernel instruction cost charged per
// syscall crossing (entry, argument copy, exit). I/O payload movement is
// charged separately per byte.
const syscallOverheadOps = 3000

// perByteKernelOps models copy_to/from_user plus page-cache bookkeeping on
// the guest kernel I/O path, per payload byte (≈0.08 kernel instr/byte).
const perByteKernelOps = 0.08

// DiskRead records a blocking read syscall of the given size.
func (m *Meter) DiskRead(file string, offset, bytes int64) {
	m.Kernel(syscallOverheadOps + uint64(float64(bytes)*perByteKernelOps))
	m.flush()
	m.steps = append(m.steps, Step{Kind: StepDiskRead, File: file, Offset: offset, Bytes: bytes})
}

// DiskWrite records a blocking write syscall of the given size.
func (m *Meter) DiskWrite(file string, offset, bytes int64) {
	m.Kernel(syscallOverheadOps + uint64(float64(bytes)*perByteKernelOps))
	m.flush()
	m.steps = append(m.steps, Step{Kind: StepDiskWrite, File: file, Offset: offset, Bytes: bytes})
}

// DiskSync records an fsync barrier.
func (m *Meter) DiskSync(file string) {
	m.Kernel(syscallOverheadOps)
	m.flush()
	m.steps = append(m.steps, Step{Kind: StepDiskSync, File: file})
}

// NetSend records a blocking send of bytes on connection conn.
func (m *Meter) NetSend(conn int, bytes int64) {
	m.Kernel(syscallOverheadOps + uint64(float64(bytes)*perByteKernelOps))
	m.flush()
	m.steps = append(m.steps, Step{Kind: StepNetSend, Conn: conn, Bytes: bytes})
}

// NetRecv records a blocking receive of bytes on connection conn.
func (m *Meter) NetRecv(conn int, bytes int64) {
	m.Kernel(syscallOverheadOps + uint64(float64(bytes)*perByteKernelOps))
	m.flush()
	m.steps = append(m.steps, Step{Kind: StepNetRecv, Conn: conn, Bytes: bytes})
}

// Sleep records a timed block.
func (m *Meter) Sleep(d sim.Time) {
	m.flush()
	m.steps = append(m.steps, Step{Kind: StepSleep, Dur: d})
}

// Clock records a local clock sample (gettimeofday). Inside a guest this
// is where timing error enters; the step exists so the drift model can
// charge it.
func (m *Meter) Clock() {
	m.Kernel(syscallOverheadOps / 3) // vsyscall-ish: cheaper than full syscall
	m.flush()
	m.steps = append(m.steps, Step{Kind: StepClock})
}

// DropCaches records the administrative cache-drop I/O benchmarks use to
// force their read phase onto the device.
func (m *Meter) DropCaches() {
	m.Kernel(syscallOverheadOps)
	m.flush()
	m.steps = append(m.steps, Step{Kind: StepDropCaches})
}

// Profile finalizes capture and returns the step stream. The Meter may not
// be reused afterwards.
func (m *Meter) Profile() *Profile {
	m.flush()
	return &Profile{Name: m.name, Steps: m.steps}
}
