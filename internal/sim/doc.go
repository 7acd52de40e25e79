// Package sim provides the deterministic discrete-event simulation kernel
// underlying the vmdg reproduction.
//
// The kernel is intentionally small: a virtual clock, a 4-ary-heap event
// queue with stable FIFO ordering for simultaneous events, and a seeded
// SplitMix64 random number generator. Determinism is a hard requirement —
// every experiment in the paper is a ratio of two runs, and reproducible
// ratios demand bit-identical scheduling decisions for a given seed.
//
// The queue holds one event type with one lifecycle. A callback is a
// Caller scheduled with Schedule: the fleet's timer arms, the host
// scheduler's core timers and sleeping threads, the guest network path's
// recycled NIC frames and ACK and reply timers, and the virtual disk's
// recycled commands. Reschedule and Rearm move a pending event in place;
// Rearm also gives it the next insertion sequence. Cancel takes an event
// out of the queue at once, so the queue holds only live events. Every
// event is drawn from a per-simulator free list, recycled the moment it
// fires or is cancelled, and addressed through the generation-checked
// Handle its scheduling call returns, so steady-state scheduling
// allocates nothing — the fleet simulator's event budget (hundreds of
// millions of events per run) depends on it.
//
// Higher layers (internal/hw, internal/hostos, internal/vmm) are written in
// event-callback style rather than goroutine-per-process style: goroutine
// scheduling is nondeterministic, while a single-threaded event loop is not.
package sim
