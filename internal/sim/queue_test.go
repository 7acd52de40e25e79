package sim

import (
	"fmt"
	"math"
	"testing"
	"unsafe"
)

// TestEventLayout keeps an event within one 64-byte cache line. The
// layout is tight: the simulator back-pointer fits only because the heap
// index is an int32. A 72-byte event, the same fields with an int index,
// was timed once: serial fleet-churn-shaped runs read 2884 against
// 2947 ms in medians of 10, inside the spread, so the bound rests on the
// cache line, not on a measured slowdown. It is <=, not ==, because a
// 32-bit build packs the event smaller.
func TestEventLayout(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 64 {
		t.Fatalf("event is %d bytes, want at most 64", n)
	}
}

// TestLessMatchesCellLess checks the branch-free compare of down's
// tournament against cellLess on every ordered pair of edge keys, which
// combine the extremes of at and seq, and on random pairs. Half of the
// random pairs draw at from a few values, so that they often tie on at
// and the low word's borrow decides.
func TestLessMatchesCellLess(t *testing.T) {
	check := func(a, b cell) {
		want := uint64(0)
		if cellLess(a, b) {
			want = 1
		}
		if got := less(a, b); got != want {
			t.Fatalf("less((%d, %d), (%d, %d)) = %d, cellLess says %d", a.at, a.seq, b.at, b.seq, got, want)
		}
	}
	var edges []cell
	for _, at := range []Time{math.MinInt64, -1, 0, 1, math.MaxInt64} {
		for _, seq := range []uint64{0, 1, math.MaxUint64} {
			edges = append(edges, cell{at: at, seq: seq})
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	r := NewRNG(1)
	for i := 0; i < 1_000_000; i++ {
		a := cell{at: Time(r.Uint64()), seq: r.Uint64()}
		b := cell{at: Time(r.Uint64()), seq: r.Uint64()}
		if i%2 == 1 {
			a.at, b.at = Time(r.Intn(3)-1), Time(r.Intn(3)-1)
		}
		check(a, b)
	}
}

// refEvent is one live occurrence in the reference queue of
// TestQueueMatchesReference.
type refEvent struct {
	h     Handle
	at    Time
	seq   uint64
	label string
	id    int
}

func refLess(a, b refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// refFire is one fire the differential test observed.
type refFire struct {
	id int
	at Time
}

// refCaller records which scheduled occurrence fired, and when.
type refCaller struct {
	log *[]refFire
	id  int
}

func (c refCaller) Fire(now Time) { *c.log = append(*c.log, refFire{c.id, now}) }

// Handle kinds that the differential test cancels, reschedules and
// re-arms, counted so the test can show it reached each one.
const (
	refLive = iota
	refDead // fired or cancelled, and possibly reused since
	refZero
	refKinds
)

// TestQueueMatchesReference drives the event queue with a seeded random
// mix of Schedule, Cancel, Reschedule, Rearm and single steps, against a
// reference that keeps the live (at, seq, label) triples in a plain
// slice. The Handles it cancels, moves and re-arms are live, fired,
// stale (fired or cancelled, and their event reused) or zero. After every
// operation the queue must hold exactly the reference's events, each
// cell at its own index and in 4-ary heap order, and each step must fire
// the reference's minimum. Because the (at, seq) keys are unique, any
// correct queue passes it, whatever its internal order.
func TestQueueMatchesReference(t *testing.T) {
	var reached [refKinds]int
	for seed := uint64(1); seed <= 200; seed++ {
		for k, n := range checkQueueAgainstReference(t, seed, 2000) {
			reached[k] += n
		}
	}
	for k, n := range reached {
		if n == 0 {
			t.Errorf("no operation used a Handle of kind %d", k)
		}
	}
}

// checkQueueAgainstReference runs ops random operations from seed and
// returns how many Cancel, Reschedule and Rearm calls used each kind of
// Handle.
func checkQueueAgainstReference(t *testing.T, seed uint64, ops int) (reached [refKinds]int) {
	t.Helper()
	s := New()
	r := NewRNG(seed)
	var fired []refFire
	var live []refEvent  // the reference queue, unordered
	var handles []Handle // every Handle Schedule returned
	seq := uint64(0)     // the reference's next sequence number
	find := func(h Handle) int {
		for i := range live {
			if live[i].h == h {
				return i
			}
		}
		return -1
	}
	minimum := func() int {
		best := 0
		for i := range live {
			if refLess(live[i], live[best]) {
				best = i
			}
		}
		return best
	}
	// pick returns a live Handle, any Handle Schedule returned, or the
	// zero Handle, and the index of its live occurrence or -1.
	pick := func() (Handle, int) {
		var h Handle
		switch k := r.Intn(10); {
		case k < 5 && len(live) > 0:
			h = live[r.Intn(len(live))].h
		case k < 9 && len(handles) > 0:
			h = handles[r.Intn(len(handles))]
		}
		i := find(h)
		switch {
		case i >= 0:
			reached[refLive]++
		case h == Handle{}:
			reached[refZero]++
		default:
			reached[refDead]++
		}
		return h, i
	}
	for op := 0; op < ops; op++ {
		var name string
		switch k := r.Intn(100); {
		case k < 35:
			name = "Schedule"
			at, label := s.Now()+Time(r.Intn(16)), fmt.Sprintf("s%d", op)
			h := s.Schedule(at, label, refCaller{&fired, op})
			live = append(live, refEvent{h, at, seq, label, op})
			handles = append(handles, h)
			seq++
		case k < 55:
			name = "Cancel"
			h, i := pick()
			h.Cancel()
			if i >= 0 {
				live = append(live[:i], live[i+1:]...)
			}
			if h.Active() {
				t.Fatalf("seed %d, op %d: a cancelled Handle is active", seed, op)
			}
		case k < 65:
			name = "Reschedule"
			h, i := pick()
			at := s.Now() + Time(r.Intn(16))
			if got := s.Reschedule(h, at); got != (i >= 0) {
				t.Fatalf("seed %d, op %d: Reschedule reported %v for a Handle the reference holds at %d", seed, op, got, i)
			}
			if i >= 0 {
				live[i].at = at
			}
		case k < 75:
			name = "Rearm"
			h, i := pick()
			at, label := s.Now()+Time(r.Intn(16)), fmt.Sprintf("r%d", op)
			if got := s.Rearm(h, at, label); got != (i >= 0) {
				t.Fatalf("seed %d, op %d: Rearm reported %v for a Handle the reference holds at %d", seed, op, got, i)
			}
			if i >= 0 {
				live[i].at, live[i].seq, live[i].label = at, seq, label
				seq++
			}
		default:
			name = "step"
			if len(live) == 0 {
				if s.step() {
					t.Fatalf("seed %d, op %d: step fired from a queue the reference holds empty", seed, op)
				}
				break
			}
			i := minimum()
			want := live[i]
			if len(s.queue) == 0 || s.queue[0].e.label != want.label {
				t.Fatalf("seed %d, op %d: the queue's earliest event is not %q", seed, op, want.label)
			}
			n := len(fired)
			if !s.step() || len(fired) != n+1 || fired[n] != (refFire{want.id, want.at}) || s.Now() != want.at {
				t.Fatalf("seed %d, op %d: step fired %v at now %v, want %q (%d) at %v",
					seed, op, fired[n:], s.Now(), want.label, want.id, want.at)
			}
			live = append(live[:i], live[i+1:]...)
		}
		if got := s.Pending(); got != len(live) {
			t.Fatalf("seed %d, op %d (%s): Pending is %d with %d live events", seed, op, name, got, len(live))
		}
		next, ok := s.NextEventTime()
		if len(live) == 0 && ok {
			t.Fatalf("seed %d, op %d (%s): NextEventTime is %v with no live event", seed, op, name, next)
		}
		if len(live) > 0 && (!ok || next != live[minimum()].at) {
			t.Fatalf("seed %d, op %d (%s): NextEventTime is %v, %v, want %v", seed, op, name, next, ok, live[minimum()].at)
		}
		if s.seq != seq {
			t.Fatalf("seed %d, op %d (%s): the queue's next sequence is %d, the reference's %d", seed, op, name, s.seq, seq)
		}
		for _, want := range live {
			e := want.h.e
			if !want.h.Active() || e.at != want.at || e.seq != want.seq || e.label != want.label {
				t.Fatalf("seed %d, op %d (%s): live occurrence %q at %v seq %d reads active %v, %q at %v seq %d",
					seed, op, name, want.label, want.at, want.seq, want.h.Active(), e.label, e.at, e.seq)
			}
		}
		for i, c := range s.queue {
			if int(c.e.index) != i || c.at != c.e.at || c.seq != c.e.seq {
				t.Fatalf("seed %d, op %d (%s): cell %d holds (%v, %d) for an event at index %d with key (%v, %d)",
					seed, op, name, i, c.at, c.seq, c.e.index, c.e.at, c.e.seq)
			}
			if i > 0 && cellLess(c, s.queue[(i-1)/4]) {
				t.Fatalf("seed %d, op %d (%s): cell %d sorts before its parent", seed, op, name, i)
			}
		}
	}
	return reached
}
