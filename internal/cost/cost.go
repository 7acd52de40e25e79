package cost

import "fmt"

// Per-class cycles-per-operation on the modelled Core 2 micro-architecture.
// These translate algorithm-level operation counts into cycle budgets. The
// absolute values only set the time scale; the paper's results are ratios,
// which depend on the class *mix*, not on absolute CPI.
const (
	CPIInt    = 1.0 // simple ALU op, often dual-issued
	CPIFP     = 2.0 // FP add/mul latency amortized over the FPU pipeline
	CPIMem    = 6.0 // average memory access incl. L1/L2 hits and misses
	CPIKernel = 1.5 // kernel-path instruction (syscall/interrupt bodies)
)

// Mix describes how a block of computation distributes its cycles across
// operation classes. Fields are fractions in [0,1] that sum to 1.
type Mix struct {
	Int    float64 // user-mode integer ALU share
	FP     float64 // user-mode floating point share
	Mem    float64 // memory-traffic share (drives shared-bus contention)
	Kernel float64 // guest-kernel share (drives VMM trap overhead)
}

// Total returns the sum of all fractions (1.0 for a normalized mix).
func (m Mix) Total() float64 { return m.Int + m.FP + m.Mem + m.Kernel }

// Normalized returns the mix scaled so its fractions sum to 1. A zero mix
// normalizes to a pure-integer mix, which is the safest default for
// untyped busy work.
func (m Mix) Normalized() Mix {
	t := m.Total()
	if t <= 0 {
		return Mix{Int: 1}
	}
	return Mix{Int: m.Int / t, FP: m.FP / t, Mem: m.Mem / t, Kernel: m.Kernel / t}
}

// Blend returns the cycle-weighted average of two mixes, where a and b
// carry wa and wb cycles respectively.
func Blend(a Mix, wa float64, b Mix, wb float64) Mix {
	if wa+wb <= 0 {
		return a
	}
	return Mix{
		Int:    (a.Int*wa + b.Int*wb) / (wa + wb),
		FP:     (a.FP*wa + b.FP*wb) / (wa + wb),
		Mem:    (a.Mem*wa + b.Mem*wb) / (wa + wb),
		Kernel: (a.Kernel*wa + b.Kernel*wb) / (wa + wb),
	}
}

func (m Mix) String() string {
	return fmt.Sprintf("mix{int:%.2f fp:%.2f mem:%.2f krn:%.2f}", m.Int, m.FP, m.Mem, m.Kernel)
}

// Counts is the raw operation tally a benchmark accumulates while running.
type Counts struct {
	IntOps    uint64 // integer ALU operations
	FPOps     uint64 // floating point operations
	MemOps    uint64 // loads/stores that reach the cache hierarchy
	KernelOps uint64 // instructions executed on the guest kernel path
}

// Add accumulates o into c.
func (c *Counts) Add(o Counts) {
	c.IntOps += o.IntOps
	c.FPOps += o.FPOps
	c.MemOps += o.MemOps
	c.KernelOps += o.KernelOps
}

// Cycles converts the tally to a cycle budget using the CPI table.
func (c Counts) Cycles() float64 {
	return float64(c.IntOps)*CPIInt + float64(c.FPOps)*CPIFP +
		float64(c.MemOps)*CPIMem + float64(c.KernelOps)*CPIKernel
}

// Mix returns the cycle-share mix implied by the tally.
func (c Counts) Mix() Mix {
	total := c.Cycles()
	if total <= 0 {
		return Mix{Int: 1}
	}
	return Mix{
		Int:    float64(c.IntOps) * CPIInt / total,
		FP:     float64(c.FPOps) * CPIFP / total,
		Mem:    float64(c.MemOps) * CPIMem / total,
		Kernel: float64(c.KernelOps) * CPIKernel / total,
	}
}
