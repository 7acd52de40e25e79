package sim

import (
	"fmt"
	"math/bits"
)

// event is one scheduled callback. Events fire in (at, seq) order: ties
// on at are broken by insertion order, which makes simultaneous events
// deterministic without requiring callers to avoid them.
//
// Every event comes from the simulator's free list and goes back to it
// the moment it fires or is cancelled, so callers never hold one: they
// hold the generation-checked Handle the scheduling call returned. An
// event stays with the simulator that allocated it, and its 64 bytes
// are one cache line on amd64.
type event struct {
	at    Time   // virtual time at which the callback fires
	label string // optional, names the event in panics and debugging
	call  Caller
	seq   uint64     // insertion order, breaks ties
	sim   *Simulator // owner, whose heap Cancel removes the event from
	index int32      // heap index while queued
	gen   uint32     // bumped on every recycle, validates Handles
}

// Caller is an event's callback: Fire receives the virtual time the
// event was scheduled for. Implementations are typically named pointer
// aliases of the model struct itself (see internal/grid's timer arms),
// so scheduling allocates nothing at steady state.
type Caller interface {
	Fire(now Time)
}

// Handle addresses one scheduled occurrence of an event. A Handle stays
// safe forever: once the occurrence fires or is cancelled, the
// underlying event is recycled with a bumped generation and the stale
// Handle's Cancel/Active degrade to no-ops. The zero Handle is valid and
// inert.
type Handle struct {
	e   *event
	gen uint32
}

// Cancel takes the occurrence out of the queue at once, in O(log n), and
// recycles its event. Cancelling a fired, cancelled, or zero Handle is a
// no-op — the generation check prevents a stale Handle from cancelling
// an unrelated occurrence that reused the event.
func (h Handle) Cancel() {
	if h.Active() {
		h.e.sim.remove(int(h.e.index))
	}
}

// Active reports whether the occurrence is still queued. Every way out of
// the queue bumps the event's generation before any callback runs, so a
// matching generation means queued.
func (h Handle) Active() bool {
	return h.e != nil && h.e.gen == h.gen
}

// cell is one slot of the event heap: the ordering key is kept inline so
// comparisons never chase the event pointer, and sifting moves 24-byte
// cells instead of swapping pointers three writes at a time.
type cell struct {
	at  Time
	seq uint64
	e   *event
}

func cellLess(a, b cell) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// less is cellLess as 0 or 1, computed without a branch. Read each key
// (at, seq) as one 128-bit unsigned number, at in the high word with its
// sign bit flipped so that signed order becomes unsigned order; then a's
// key is less than b's exactly when subtracting b's from it borrows out
// of the high word.
func less(a, b cell) uint64 {
	const sign = 1 << 63
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at)^sign, uint64(b.at)^sign, borrow)
	return borrow
}

// Simulator owns the virtual clock and the event queue. It is not safe for
// concurrent use; the entire simulation runs on one goroutine by design.
type Simulator struct {
	now     Time
	queue   []cell   // 4-ary min-heap on (at, seq)
	free    []*event // recycled events
	seq     uint64
	fired   uint64
	running bool
	stopped bool
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Fired returns the number of events executed so far, a cheap progress and
// determinism probe (two identical runs must fire identical counts).
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events currently queued.
func (s *Simulator) Pending() int { return len(s.queue) }

// The heap is hand-rolled rather than container/heap because event
// push/pop is the innermost loop of every simulation: interface dispatch,
// binary fan-out, and pointer-swap write barriers together cost ~2× on
// the hot path. A 4-ary heap halves the depth (4 levels for a thousand
// events), and the hole-style sifts below move each displaced cell once
// instead of swapping it three writes at a time.
//
// down picks the least of a full node's four children without a branch,
// on the path every pop takes. The keys of sibling events are in effect
// random, so a branch per compare would often mispredict. Instead it
// plays a two-round tournament: each compare is less, a 0 or 1 from a
// borrow chain, and masking picks each winner. Only the compare of the
// winner with the sifted cell, which ends the sift, still branches.

// up sifts cell c toward the root from the hole at i.
func (s *Simulator) up(i int, c cell) {
	for i > 0 {
		parent := (i - 1) / 4
		if !cellLess(c, s.queue[parent]) {
			break
		}
		s.queue[i] = s.queue[parent]
		s.queue[i].e.index = int32(i)
		i = parent
	}
	s.queue[i] = c
	c.e.index = int32(i)
}

// down sifts cell c toward the leaves from the hole at i.
func (s *Simulator) down(i int, c cell) {
	n := len(s.queue)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		var best int
		if first+4 <= n {
			// a wins 0 against 1, b wins 2 against 3, and m is all
			// ones when b beats a. The masks on the indexes only prove
			// them in range to the compiler.
			k := (*[4]cell)(s.queue[first:])
			a := int(less(k[1], k[0]))
			b := 2 | int(less(k[3], k[2]))
			m := -int(less(k[b&3], k[a&1]))
			best = first + (a ^ (a^b)&m)
		} else {
			best = first
			for j := first + 1; j < n; j++ {
				if cellLess(s.queue[j], s.queue[best]) {
					best = j
				}
			}
		}
		if !cellLess(s.queue[best], c) {
			break
		}
		s.queue[i] = s.queue[best]
		s.queue[i].e.index = int32(i)
		i = best
	}
	s.queue[i] = c
	c.e.index = int32(i)
}

// fix restores the heap around i after its key changed in place.
func (s *Simulator) fix(i int) {
	c := s.queue[i]
	s.down(i, c)
	if c.e.index == int32(i) {
		s.up(i, c)
	}
}

// push inserts e and assigns its sequence number.
func (s *Simulator) push(e *event) {
	e.seq = s.seq
	s.seq++
	c := cell{at: e.at, seq: e.seq, e: e}
	s.queue = append(s.queue, c)
	s.up(len(s.queue)-1, c)
}

// remove takes the cell at i out of the heap and recycles its event. The
// last cell fills the hole and sifts to its place; a hole at the root,
// where step pops, can only sift down.
func (s *Simulator) remove(i int) {
	e := s.queue[i].e
	n := len(s.queue) - 1
	last := s.queue[n]
	s.queue[n] = cell{}
	s.queue = s.queue[:n]
	if i < n {
		if i > 0 && cellLess(last, s.queue[(i-1)/4]) {
			s.up(i, last)
		} else {
			s.down(i, last)
		}
	}
	s.release(e)
}

// Schedule schedules c.Fire(at) at absolute virtual time at. The event is
// drawn from the simulator's free list and recycled as soon as it fires
// or is cancelled, so steady-state scheduling allocates nothing. The
// returned Handle is the only way to cancel the occurrence.
// Scheduling in the past panics: it always indicates a model bug, and
// silently reordering time would corrupt every measurement downstream.
func (s *Simulator) Schedule(at Time, label string, c Caller) Handle {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event %q at %v before now %v", label, at, s.now))
	}
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &event{sim: s}
	}
	e.at, e.label, e.call = at, label, c
	s.push(e)
	return Handle{e: e, gen: e.gen}
}

// Reschedule moves a still-pending occurrence to a new time in place, in
// one O(log n) heap fix where Cancel plus Schedule would take two sifts.
// It reports false when the Handle is stale, cancelled, or already fired;
// the caller should then Schedule a fresh occurrence. The occurrence
// keeps its original insertion sequence.
func (s *Simulator) Reschedule(h Handle, at Time) bool {
	if !h.Active() {
		return false
	}
	if at < s.now {
		panic(fmt.Sprintf("sim: rescheduling event %q to %v before now %v", h.e.label, at, s.now))
	}
	e := h.e
	e.at = at
	s.queue[e.index].at = at
	s.fix(int(e.index))
	return true
}

// Rearm moves a still-pending occurrence to a new time and label in
// place and gives it the next insertion sequence, so for pop order it is
// exactly Cancel followed by Schedule, in one heap fix instead of two
// sifts, and the Handle stays live. It reports false, changing nothing,
// when the Handle is stale, cancelled, or already fired; the caller
// should then Schedule a fresh occurrence. Reschedule, by contrast,
// keeps the original sequence and label.
func (s *Simulator) Rearm(h Handle, at Time, label string) bool {
	if !h.Active() {
		return false
	}
	if at < s.now {
		panic(fmt.Sprintf("sim: rearming event %q at %v before now %v", label, at, s.now))
	}
	e := h.e
	e.at, e.label, e.seq = at, label, s.seq
	s.seq++
	s.queue[e.index] = cell{at: at, seq: e.seq, e: e}
	s.fix(int(e.index))
	return true
}

// release recycles an event once it has left the queue: it fired, was
// cancelled, or was reset away. Bumping the generation invalidates every
// outstanding Handle.
func (s *Simulator) release(e *event) {
	e.gen++
	e.call = nil
	s.free = append(s.free, e)
}

// Stop makes Run return after the currently executing event completes.
func (s *Simulator) Stop() { s.stopped = true }

// Reset returns the simulator to the zero-clock empty state while
// keeping its allocations: queued events are recycled into the free
// list (their generations bump, so outstanding Handles degrade to
// no-ops exactly as after a fire), and the queue's backing array is
// retained. A reset simulator is indistinguishable from New() to any
// model code — sequence numbers, the clock, and the fired counter all
// restart at zero — which is what lets a worker arena reuse one
// Simulator across many shard runs without a single steady-state
// allocation. Resetting mid-Run panics.
func (s *Simulator) Reset() {
	if s.running {
		panic("sim: Reset during Run")
	}
	for _, c := range s.queue {
		s.release(c.e)
	}
	clear(s.queue)
	s.queue = s.queue[:0]
	s.now, s.seq, s.fired = 0, 0, 0
	s.stopped = false
}

// step fires the earliest event. It reports false when the queue is
// exhausted.
func (s *Simulator) step() bool {
	if len(s.queue) == 0 {
		return false
	}
	// Recycle before firing: the callback may immediately schedule again
	// and get this very event back.
	top := s.queue[0]
	c := top.e.call
	s.remove(0)
	s.now = top.at
	s.fired++
	c.Fire(top.at)
	return true
}

// Run fires events until the queue is empty or Stop is called. It panics if
// invoked re-entrantly from inside an event callback.
func (s *Simulator) Run() {
	if s.running {
		panic("sim: re-entrant Run")
	}
	s.running = true
	s.stopped = false
	defer func() { s.running = false }()
	for !s.stopped && s.step() {
	}
}

// RunUntil fires events at or before deadline, then advances the clock to
// exactly deadline. Events scheduled at the deadline itself do fire.
func (s *Simulator) RunUntil(deadline Time) {
	if s.running {
		panic("sim: re-entrant RunUntil")
	}
	s.running = true
	s.stopped = false
	defer func() { s.running = false }()
	for !s.stopped {
		next, ok := s.NextEventTime()
		if !ok || next > deadline {
			break
		}
		s.step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// NextEventTime returns the time of the earliest queued event, for
// schedulers that want to coalesce wakeups. It changes nothing.
func (s *Simulator) NextEventTime() (Time, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].at, true
}
