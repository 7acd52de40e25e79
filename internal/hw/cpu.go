package hw

import "fmt"

// CPU describes the processor.
type CPU struct {
	// Cores is the number of physical cores (2 for the paper's testbed).
	Cores int
	// FreqHz is the core clock (2.4e9 for the Core 2 Duo 6600).
	FreqHz float64
	// BusK scales shared-bus contention: a thread with memory-cycle share
	// m₁ co-running with a thread of share m₂ is slowed by 1 + BusK·m₁·m₂.
	// Calibrated so that two 7z threads reach ≈180% aggregate (paper §4.2.3).
	BusK float64
}

// Core2Duo6600 returns the paper's processor model.
func Core2Duo6600() CPU {
	// BusK is calibrated against §4.2.3: two 7z threads (memory-cycle
	// share ≈ 0.5 each) must reach ≈180% of a single core, so
	// 2/(1 + BusK·0.5²) ≈ 1.80 → BusK ≈ 0.45.
	return CPU{Cores: 2, FreqHz: 2.4e9, BusK: 0.45}
}

// Validate checks the configuration for physical plausibility.
func (c CPU) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("hw: CPU needs at least one core, got %d", c.Cores)
	}
	if c.FreqHz <= 0 {
		return fmt.Errorf("hw: non-positive frequency %v", c.FreqHz)
	}
	if c.BusK < 0 {
		return fmt.Errorf("hw: negative bus contention factor %v", c.BusK)
	}
	return nil
}

// Rates writes into rates the effective execution rate (cycles/second) of
// the thread on each core, given the memory-cycle share of the thread
// currently dispatched there. An entry < 0 marks an idle core. Idle cores
// produce a rate of 0 and exert no bus pressure. Both slices hold one
// entry per core; the caller owns rates, so a scheduler can reuse one
// slice across every transition.
//
// For core i with memory share mᵢ, the slowdown is
//
//	sᵢ = 1 + BusK · mᵢ · Σⱼ≠ᵢ mⱼ
//
// so a pure-ALU thread (mᵢ=0) is immune to a memory-thrashing neighbour,
// while two streaming threads fight. This is a first-order fit to shared
// L2/FSB behaviour, sufficient for the ratio experiments reproduced here.
func (c CPU) Rates(memShare, rates []float64) {
	if len(memShare) != c.Cores || len(rates) != c.Cores {
		panic(fmt.Sprintf("hw: Rates got %d shares and %d rates for %d cores", len(memShare), len(rates), c.Cores))
	}
	var total float64
	for _, m := range memShare {
		if m > 0 {
			total += m
		}
	}
	for i, m := range memShare {
		if m < 0 {
			rates[i] = 0
			continue
		}
		others := total
		if m > 0 {
			others -= m
		}
		slow := 1 + c.BusK*m*others
		rates[i] = c.FreqHz / slow
	}
}
