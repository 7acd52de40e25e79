package engine

import (
	"runtime"
	"sync"
)

// Pool is the bounded worker pool every Runner.Run call executes on:
// a call's private one, or one that any number of concurrent calls
// share. Each run keeps its own FIFO queue of span units; the
// pool's workers serve the queues round-robin, one unit per turn, so K
// concurrent runs each see ~1/K of the workers instead of every run
// spinning its own private pool and oversubscribing the machine K×.
// Everything that makes a single run deterministic — the span-chunk
// feeder, the permit-bounded reorder window, the in-order fold, the
// manifest journal — lives per run and is untouched by sharing; the
// pool only decides *which* run's next span a freed worker picks up.
//
// Runs sharing a Pool also share its single-flight group (see
// flight.go): a shard payload needed by several concurrent runs is
// computed once and handed to the rest from memory.
type Pool struct {
	workers int
	flights *FlightGroup

	mu      sync.Mutex
	cond    *sync.Cond
	queues  []*poolRun // runs with pending units, in round-robin order
	rr      int        // next queue to serve
	spawned int
	idle    int
	closed  bool
}

// NewPool creates a pool with the given worker count; <= 0 means
// GOMAXPROCS at creation time.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, flights: NewFlightGroup()}
	p.cond = sync.NewCond(&p.mu)
	return p
}

var (
	defaultPoolOnce sync.Once
	defaultPool     *Pool
)

// DefaultPool returns the process-wide pool, created with GOMAXPROCS
// workers on first use. Long-lived multi-run processes (the serve
// daemon, the concurrency benchmark) hand it to every Runner so the
// whole process is bounded by one worker budget.
func DefaultPool() *Pool {
	defaultPoolOnce.Do(func() { defaultPool = NewPool(0) })
	return defaultPool
}

// Workers reports the pool's worker bound.
func (p *Pool) Workers() int { return p.workers }

// Flights returns the single-flight group shared by every run on this
// pool.
func (p *Pool) Flights() *FlightGroup { return p.flights }

// Close shuts the pool's workers down after their current units and
// returns once every worker has exited. Units still queued are
// abandoned; a closed pool must not receive further submits. A Runner
// closes the private pool it creates for a run without a shared one.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.cond.Broadcast()
	for p.spawned > 0 {
		p.cond.Wait()
	}
}

// poolRun is one Run call's private queue inside the pool. Runs are
// registered implicitly: a run appears in the round-robin rotation
// while it has pending units and drops out when its queue drains, so
// finished runs cost the scheduler nothing.
type poolRun struct {
	p       *Pool
	pending []func()
	queued  bool // currently in p.queues
}

// register creates a run queue on the pool.
func (p *Pool) register() *poolRun { return &poolRun{p: p} }

// submit enqueues one unit. It never blocks: the caller's permit flow
// (the reorder window) already bounds how many units a run can have
// outstanding, so the queue is small by construction.
func (r *poolRun) submit(fn func()) {
	p := r.p
	p.mu.Lock()
	r.pending = append(r.pending, fn)
	if !r.queued {
		r.queued = true
		p.queues = append(p.queues, r)
	}
	if p.idle == 0 && p.spawned < p.workers {
		p.spawned++
		go p.worker()
	}
	p.cond.Signal()
	p.mu.Unlock()
}

// next pops one unit from the next run in the rotation. Popping a
// run's last unit removes the run from the rotation (it re-registers
// on its next submit); otherwise the cursor advances past it, so no
// run is served twice before every other pending run is served once.
func (p *Pool) next() (func(), bool) {
	if len(p.queues) == 0 {
		return nil, false
	}
	if p.rr >= len(p.queues) {
		p.rr = 0
	}
	q := p.queues[p.rr]
	fn := q.pending[0]
	q.pending[0] = nil
	q.pending = q.pending[1:]
	if len(q.pending) == 0 {
		q.queued = false
		q.pending = nil
		p.queues = append(p.queues[:p.rr], p.queues[p.rr+1:]...)
		// The cursor now indexes the run after the removed one.
	} else {
		p.rr++
	}
	return fn, true
}

func (p *Pool) worker() {
	p.mu.Lock()
	for {
		if p.closed {
			p.spawned--
			p.cond.Broadcast() // wakes Close, and idle peers to exit too
			p.mu.Unlock()
			return
		}
		fn, ok := p.next()
		if !ok {
			p.idle++
			p.cond.Wait()
			p.idle--
			continue
		}
		p.mu.Unlock()
		fn()
		p.mu.Lock()
	}
}
