package netsim

import (
	"fmt"

	"vmdg/internal/sim"
)

// Config sizes a Network.
type Config struct {
	// AggregateBps is the server frontend's total transfer capacity in
	// bits/second, shared max-min fairly by every active transfer in
	// both directions (a frontend's NIC is the bottleneck, not its
	// duplex halves). Zero or negative means uncapped: every transfer
	// runs at its own link rate.
	AggregateBps float64
}

// Sink receives a transfer's completion. Implementations are typically
// named pointer aliases of the owning model struct (the grid's hosts),
// so registering one allocates nothing.
type Sink interface {
	// TransferDone fires exactly once per completed transfer, at the
	// virtual instant its last byte drains. Cancelled transfers never
	// fire it.
	TransferDone(now sim.Time, t *Transfer)
}

// Network is one star network: hosts on the edge, a capacity-limited
// server frontend at the center. It is not safe for concurrent use —
// like the simulator it schedules on, a Network belongs to exactly one
// shard's event loop.
type Network struct {
	s      *sim.Simulator
	aggBps float64

	// active holds the in-flight transfers in start order — the
	// deterministic iteration order of every rate assignment.
	active []*Transfer
	last   sim.Time // rates are exact as of this instant

	// Stats.
	Started        int
	Completed      int
	Cancelled      int
	CompletedBytes int64
}

// New returns an empty network scheduling on s.
func New(s *sim.Simulator, cfg Config) *Network {
	return &Network{s: s, aggBps: cfg.AggregateBps}
}

// Transfer is one in-flight byte stream between a host and the server.
type Transfer struct {
	n         *Network
	bytes     int64
	linkBps   float64
	remaining float64 // bytes still to move
	rate      float64 // bytes/second under the current fair share
	h         sim.Handle
	sink      Sink
	done      bool
	cancelled bool
}

// xferArm is the completion caller of a Transfer (see sim.Caller): a
// free pointer conversion, so scheduling a completion allocates only
// the pooled event.
type xferArm Transfer

func (a *xferArm) Fire(now sim.Time) {
	t := (*Transfer)(a)
	t.n.finish(t, now)
}

// Bytes returns the transfer's total size.
func (t *Transfer) Bytes() int64 { return t.bytes }

// Remaining returns the bytes not yet moved (0 once complete).
func (t *Transfer) Remaining() int64 {
	if t.done {
		return 0
	}
	r := int64(t.remaining + 0.5)
	if r < 0 {
		r = 0
	}
	return r
}

// Active reports whether the transfer is still in flight.
func (t *Transfer) Active() bool { return !t.done && !t.cancelled }

// Start begins moving bytes over a host link of linkBps bits/second
// and returns the transfer; sink fires when the last byte drains.
// Sizes and rates must be positive — a zero-byte or zero-rate transfer
// is a model bug, not a network condition.
func (n *Network) Start(bytes int64, linkBps float64, sink Sink) *Transfer {
	if bytes <= 0 {
		panic(fmt.Sprintf("netsim: transfer of %d bytes", bytes))
	}
	if linkBps <= 0 {
		panic(fmt.Sprintf("netsim: transfer on a %g bps link", linkBps))
	}
	n.advance(n.s.Now())
	t := &Transfer{n: n, bytes: bytes, linkBps: linkBps, remaining: float64(bytes), sink: sink}
	n.active = append(n.active, t)
	n.Started++
	n.reflow()
	return t
}

// Cancel abandons an in-flight transfer; its sink never fires and the
// untransferred remainder is dropped. Cancelling a finished or already
// cancelled transfer is a no-op.
func (n *Network) Cancel(t *Transfer) {
	if !t.Active() {
		return
	}
	n.advance(n.s.Now())
	t.cancelled = true
	t.h.Cancel()
	t.h = sim.Handle{}
	n.remove(t)
	n.Cancelled++
	n.reflow()
}

// finish completes t at its scheduled drain instant.
func (n *Network) finish(t *Transfer, now sim.Time) {
	n.advance(now)
	t.done = true
	t.remaining = 0
	t.h = sim.Handle{}
	n.remove(t)
	n.Completed++
	n.CompletedBytes += t.bytes
	n.reflow()
	t.sink.TransferDone(now, t)
}

// remove drops t from the active set, preserving start order.
func (n *Network) remove(t *Transfer) {
	for i, a := range n.active {
		if a == t {
			n.active = append(n.active[:i], n.active[i+1:]...)
			return
		}
	}
}

// advance drains every active transfer up to now at the prevailing
// rates. Rates only change when the active set does, so each window is
// constant-rate by construction.
func (n *Network) advance(now sim.Time) {
	dt := (now - n.last).Seconds()
	if dt > 0 {
		for _, t := range n.active {
			t.remaining -= t.rate * dt
			if t.remaining < 0 {
				t.remaining = 0
			}
		}
	}
	n.last = now
}

// reflow recomputes max-min fair rates for the active set and
// (re)schedules each transfer's drain event. Call after every
// membership change, with remainders already advanced to now.
func (n *Network) reflow() {
	if len(n.active) == 0 {
		return
	}
	n.assignRates()
	now := n.s.Now()
	for _, t := range n.active {
		// A drain past the end of time (a vanishing share) never fires.
		eta := sim.AddSeconds(now, t.remaining/t.rate)
		if !n.s.Reschedule(t.h, eta) {
			t.h = n.s.Schedule(eta, "xfer-drain", (*xferArm)(t))
		}
	}
}

// assignRates implements progressive filling: transfers whose access
// link is below the equal share are capped at their link and the spare
// capacity re-divides among the rest, iterating until the share
// settles. O(active²) worst case, O(active) typical — active sets are
// membership-change sized, not fleet sized.
func (n *Network) assignRates() {
	if n.aggBps <= 0 {
		for _, t := range n.active {
			t.rate = t.linkBps / 8
		}
		return
	}
	for _, t := range n.active {
		t.rate = -1
	}
	capLeft := n.aggBps
	unassigned := len(n.active)
	for unassigned > 0 {
		share := capLeft / float64(unassigned)
		capped := false
		for _, t := range n.active {
			if t.rate < 0 && t.linkBps <= share {
				t.rate = t.linkBps
				capLeft -= t.linkBps
				unassigned--
				capped = true
			}
		}
		if !capped {
			// No one is link-limited at this share: the rest split the
			// remaining capacity equally. Guard the (unreachable in
			// practice) exact-exhaustion case so a drain time can never
			// be infinite.
			if share <= 0 {
				share = 1
			}
			for _, t := range n.active {
				if t.rate < 0 {
					t.rate = share
				}
			}
			break
		}
	}
	// Rates so far are bits/second; transfers drain bytes.
	for _, t := range n.active {
		t.rate /= 8
	}
}
