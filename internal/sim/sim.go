package sim

import "fmt"

// Event is a scheduled callback. Events fire in (At, seq) order: ties on At
// are broken by insertion order, which makes simultaneous events
// deterministic without requiring callers to avoid them.
//
// Events come in two flavours. At/After return a fresh *Event per call and
// never recycle it, so holding the pointer (and calling Cancel at any later
// point) is always safe. Schedule draws events from the simulator's free
// pool and recycles them the moment they fire or their cancellation is
// reaped; pooled events are addressed through generation-checked Handles,
// never raw pointers.
type Event struct {
	At     Time   // virtual time at which the callback fires
	Fn     func() // closure callback (At/After); nil for pooled events
	Label  string // optional, names the event in panics and debugging
	call   Caller // closure-free callback (Schedule); nil for At/After
	seq    uint64 // insertion order, breaks ties
	index  int    // heap index; -1 once popped or cancelled
	gen    uint32 // bumped on every recycle, validates Handles
	cancel bool
	pooled bool
}

// Cancel marks the event so it will be discarded instead of fired. Cancelling
// an already-fired event is a no-op. Cancel is O(1); the event is dropped
// lazily when it reaches the top of the heap.
func (e *Event) Cancel() { e.cancel = true }

// Cancelled reports whether Cancel has been called.
func (e *Event) Cancelled() bool { return e.cancel }

// Caller is the closure-free callback of a pooled event: Fire receives the
// virtual time the event was scheduled for. Implementations are typically
// named pointer aliases of the model struct itself (see internal/grid's
// timer arms), so scheduling allocates nothing at steady state.
type Caller interface {
	Fire(now Time)
}

// Handle addresses one scheduled occurrence of a pooled event. A Handle
// stays safe forever: once the occurrence fires or its cancellation is
// reaped, the underlying Event is recycled with a bumped generation and the
// stale Handle's Cancel/Active degrade to no-ops. The zero Handle is valid
// and inert.
type Handle struct {
	e   *Event
	gen uint32
}

// Cancel marks the occurrence for discard. Cancelling a fired, reaped, or
// zero Handle is a no-op — the generation check prevents a stale Handle
// from cancelling an unrelated occurrence that reused the Event.
func (h Handle) Cancel() {
	if h.e != nil && h.e.gen == h.gen {
		h.e.cancel = true
	}
}

// Active reports whether the occurrence is still queued and uncancelled.
func (h Handle) Active() bool {
	return h.e != nil && h.e.gen == h.gen && !h.e.cancel && h.e.index >= 0
}

// cell is one slot of the event heap: the ordering key is kept inline so
// comparisons never chase the Event pointer, and sifting moves 24-byte
// cells instead of swapping pointers three writes at a time.
type cell struct {
	at  Time
	seq uint64
	e   *Event
}

func cellLess(a, b cell) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Simulator owns the virtual clock and the event queue. It is not safe for
// concurrent use; the entire simulation runs on one goroutine by design.
type Simulator struct {
	now     Time
	queue   []cell   // 4-ary min-heap on (at, seq)
	free    []*Event // recycled pooled events
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

// Pending returns the number of events currently queued (including
// cancelled-but-unreaped ones).
func (s *Simulator) Pending() int { return len(s.queue) }

// The heap is hand-rolled rather than container/heap because event
// push/pop is the innermost loop of every simulation: interface dispatch,
// binary fan-out, and pointer-swap write barriers together cost ~2× on
// the hot path. A 4-ary heap halves the depth (4 levels for a thousand
// events), and the hole-style sifts below move each displaced cell once
// instead of swapping it three writes at a time.

// up sifts cell c toward the root from the hole at i.
func (s *Simulator) up(i int, c cell) {
	for i > 0 {
		parent := (i - 1) / 4
		if !cellLess(c, s.queue[parent]) {
			break
		}
		s.queue[i] = s.queue[parent]
		s.queue[i].e.index = i
		i = parent
	}
	s.queue[i] = c
	c.e.index = i
}

// down sifts cell c toward the leaves from the hole at i.
func (s *Simulator) down(i int, c cell) {
	n := len(s.queue)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for j := first + 1; j < last; j++ {
			if cellLess(s.queue[j], s.queue[best]) {
				best = j
			}
		}
		if !cellLess(s.queue[best], c) {
			break
		}
		s.queue[i] = s.queue[best]
		s.queue[i].e.index = i
		i = best
	}
	s.queue[i] = c
	c.e.index = i
}

// fix restores the heap around i after its key changed in place.
func (s *Simulator) fix(i int) {
	c := s.queue[i]
	s.down(i, c)
	if c.e.index == i {
		s.up(i, c)
	}
}

// push inserts e and assigns its sequence number.
func (s *Simulator) push(e *Event) {
	e.seq = s.seq
	s.seq++
	c := cell{at: e.At, seq: e.seq, e: e}
	s.queue = append(s.queue, c)
	s.up(len(s.queue)-1, c)
}

// pop removes and returns the earliest event.
func (s *Simulator) pop() *Event {
	e := s.queue[0].e
	n := len(s.queue) - 1
	last := s.queue[n]
	s.queue[n] = cell{}
	s.queue = s.queue[:n]
	if n > 0 {
		s.down(0, last)
	}
	e.index = -1
	return e
}

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// panics: it always indicates a model bug, and silently reordering time
// would corrupt every measurement downstream.
func (s *Simulator) At(at Time, label string, fn func()) *Event {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event %q at %v before now %v", label, at, s.now))
	}
	e := &Event{At: at, Fn: fn, Label: label}
	s.push(e)
	return e
}

// After schedules fn to run delay after the current time.
func (s *Simulator) After(delay Time, label string, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for event %q", delay, label))
	}
	return s.At(s.now+delay, label, fn)
}

// Schedule schedules c.Fire(at) at absolute virtual time at on a pooled
// event: the Event is drawn from the simulator's free pool and recycled as
// soon as it fires or its cancellation is reaped, so steady-state
// scheduling allocates nothing. The returned Handle is the only valid way
// to cancel the occurrence.
func (s *Simulator) Schedule(at Time, label string, c Caller) Handle {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event %q at %v before now %v", label, at, s.now))
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		e.cancel = false
	} else {
		e = &Event{pooled: true}
	}
	e.At, e.Label, e.call = at, label, c
	s.push(e)
	return Handle{e: e, gen: e.gen}
}

// Reschedule moves a still-pending pooled occurrence to a new time in
// place (an O(log n) heap fix — cheaper than Cancel plus Schedule, and it
// leaves no cancelled tombstone behind). It reports false when the Handle
// is stale, cancelled, or already fired; the caller should then Schedule a
// fresh occurrence. The occurrence keeps its original insertion sequence.
func (s *Simulator) Reschedule(h Handle, at Time) bool {
	if !h.Active() {
		return false
	}
	if at < s.now {
		panic(fmt.Sprintf("sim: rescheduling event %q to %v before now %v", h.e.Label, at, s.now))
	}
	e := h.e
	e.At = at
	s.queue[e.index].at = at
	s.fix(e.index)
	return true
}

// release recycles a pooled event after it fired or its cancellation was
// reaped. Bumping the generation invalidates every outstanding Handle.
func (s *Simulator) release(e *Event) {
	if !e.pooled {
		return
	}
	e.gen++
	e.call = nil
	e.cancel = false
	s.free = append(s.free, e)
}

// Stop makes Run return after the currently executing event completes.
func (s *Simulator) Stop() { s.stopped = true }

// Reset returns the simulator to the zero-clock empty state while
// keeping its allocations: queued pooled events are recycled into the
// free pool (their generations bump, so outstanding Handles degrade to
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
		c.e.index = -1
		s.release(c.e) // non-pooled events are simply dropped
	}
	clear(s.queue)
	s.queue = s.queue[:0]
	s.now, s.seq, s.fired = 0, 0, 0
	s.stopped = false
}

// step fires the earliest non-cancelled event. It reports false when the
// queue is exhausted.
func (s *Simulator) step() bool {
	for len(s.queue) > 0 {
		e := s.pop()
		if e.cancel {
			s.release(e)
			continue
		}
		s.now = e.At
		s.fired++
		if e.pooled {
			// Recycle before firing: the callback may immediately
			// schedule again and get this very event back.
			c, at := e.call, e.At
			s.release(e)
			c.Fire(at)
		} else {
			e.Fn()
		}
		return true
	}
	return false
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

// RunUntil fires events with At <= deadline, then advances the clock to
// exactly deadline. Events scheduled at the deadline itself do fire.
func (s *Simulator) RunUntil(deadline Time) {
	if s.running {
		panic("sim: re-entrant RunUntil")
	}
	s.running = true
	s.stopped = false
	defer func() { s.running = false }()
	for !s.stopped {
		next, ok := s.peek()
		if !ok || next > deadline {
			break
		}
		s.step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// peek returns the time of the earliest live event.
func (s *Simulator) peek() (Time, bool) {
	for len(s.queue) > 0 {
		if s.queue[0].e.cancel {
			s.release(s.pop())
			continue
		}
		return s.queue[0].at, true
	}
	return 0, false
}

// NextEventTime exposes peek for schedulers that want to coalesce wakeups.
func (s *Simulator) NextEventTime() (Time, bool) { return s.peek() }
