package netsim

import (
	"testing"

	"vmdg/internal/sim"
)

// recorder collects completion instants in callback order.
type recorder struct {
	done []completion
}

type completion struct {
	t  *Transfer
	at sim.Time
}

func (r *recorder) TransferDone(now sim.Time, t *Transfer) {
	r.done = append(r.done, completion{t: t, at: now})
}

// within asserts got is within a microsecond of want — the fluid model
// computes drain times in float seconds, so ns-exact equality would
// test the rounding, not the model.
func within(t *testing.T, what string, got, want sim.Time) {
	t.Helper()
	d := got - want
	if d < 0 {
		d = -d
	}
	if d > sim.Microsecond {
		t.Fatalf("%s at %v, want %v", what, got, want)
	}
}

const mbps = 1e6 // bits/second

func TestSingleTransferDrainsAtLinkRate(t *testing.T) {
	s := sim.New()
	n := New(s, Config{AggregateBps: 80 * mbps})
	r := &recorder{}
	n.Start(1_000_000, 8*mbps, r) // 8 Mbit over an 8 Mbps link
	s.Run()
	if len(r.done) != 1 {
		t.Fatalf("%d completions, want 1", len(r.done))
	}
	within(t, "link-limited drain", r.done[0].at, sim.Second)
	if n.Completed != 1 || n.CompletedBytes != 1_000_000 {
		t.Fatalf("stats %d/%d", n.Completed, n.CompletedBytes)
	}
}

func TestAggregateCapSharesEqually(t *testing.T) {
	s := sim.New()
	n := New(s, Config{AggregateBps: 80 * mbps})
	r := &recorder{}
	// Two fast-link transfers: each gets half the 80 Mbps frontend.
	a := n.Start(1_000_000, 100*mbps, r)
	b := n.Start(1_000_000, 100*mbps, r)
	s.Run()
	if len(r.done) != 2 {
		t.Fatalf("%d completions, want 2", len(r.done))
	}
	want := sim.FromSeconds(8e6 / (40 * mbps))
	within(t, "first drain", r.done[0].at, want)
	within(t, "second drain", r.done[1].at, want)
	// Simultaneous drains complete in start order.
	if r.done[0].t != a || r.done[1].t != b {
		t.Fatal("simultaneous completions not in start order")
	}
}

// TestMaxMinFairShare: a slow link must not drag the fast one down to
// an equal split — progressive filling hands the slow transfer its
// link rate and the fast one everything left.
func TestMaxMinFairShare(t *testing.T) {
	s := sim.New()
	n := New(s, Config{AggregateBps: 90 * mbps})
	r := &recorder{}
	slow := n.Start(10_000_000, 10*mbps, r) // 80 Mbit at 10 Mbps → 8 s
	fast := n.Start(10_000_000, 100*mbps, r)
	s.Run()
	if r.done[0].t != fast {
		t.Fatal("fast transfer did not finish first")
	}
	// Fast: 80 Mbit at 80 Mbps → 1 s. Slow: unaffected throughout.
	within(t, "fast drain", r.done[0].at, sim.Second)
	if r.done[1].t != slow {
		t.Fatal("slow transfer missing")
	}
	within(t, "slow drain", r.done[1].at, 8*sim.Second)
}

// TestCompletionReallocatesCapacity: when one transfer drains, the
// survivor's rate rises for its remaining bytes.
func TestCompletionReallocatesCapacity(t *testing.T) {
	s := sim.New()
	n := New(s, Config{AggregateBps: 80 * mbps})
	r := &recorder{}
	n.Start(1_000_000, 100*mbps, r) // 8 Mbit at 40 Mbps → drains at 0.2 s
	n.Start(2_000_000, 100*mbps, r) // half done by then, then 80 Mbps
	s.Run()
	within(t, "short drain", r.done[0].at, 200*sim.Millisecond)
	// Survivor: 8 Mbit left at 80 Mbps → 0.1 s more.
	within(t, "long drain", r.done[1].at, 300*sim.Millisecond)
}

func TestCancelDropsTransferAndReallocates(t *testing.T) {
	s := sim.New()
	n := New(s, Config{AggregateBps: 80 * mbps})
	r := &recorder{}
	doomed := n.Start(10_000_000, 100*mbps, r) // 80 Mbit
	n.Start(6_000_000, 100*mbps, r)            // 48 Mbit
	s.Schedule(sim.Second, "cancel", callFunc(func() { n.Cancel(doomed) }))
	s.Run()
	if len(r.done) != 1 {
		t.Fatalf("%d completions, want 1 (cancelled sink must not fire)", len(r.done))
	}
	// Survivor: 40 Mbit moved by the cancel at t=1s, the remaining
	// 8 Mbit then drain at the full 80 Mbps.
	within(t, "survivor drain", r.done[0].at, sim.Second+100*sim.Millisecond)
	if n.Cancelled != 1 || n.Completed != 1 {
		t.Fatalf("stats cancelled=%d completed=%d", n.Cancelled, n.Completed)
	}
	if doomed.Active() {
		t.Fatal("cancelled transfer still active")
	}
	n.Cancel(doomed) // idempotent
	if n.Cancelled != 1 {
		t.Fatal("double cancel counted twice")
	}
}

// TestLateStartResharesCapacity: a transfer arriving mid-flight slows
// the incumbent from its arrival instant only.
func TestLateStartResharesCapacity(t *testing.T) {
	s := sim.New()
	n := New(s, Config{AggregateBps: 80 * mbps})
	r := &recorder{}
	n.Start(2_000_000, 100*mbps, r) // 16 Mbit; alone at 80 Mbps
	s.Schedule(100*sim.Millisecond, "late", callFunc(func() { n.Start(10_000_000, 100*mbps, r) }))
	s.Run()
	// Incumbent: 8 Mbit in the first 100 ms, 8 Mbit left at 40 Mbps.
	within(t, "incumbent drain", r.done[0].at, 100*sim.Millisecond+sim.FromSeconds(8e6/(40*mbps)))
}

func TestUncappedNetworkRunsAtLinkRate(t *testing.T) {
	s := sim.New()
	n := New(s, Config{})
	r := &recorder{}
	for i := 0; i < 4; i++ {
		n.Start(1_000_000, 8*mbps, r)
	}
	s.Run()
	for _, d := range r.done {
		within(t, "uncapped drain", d.at, sim.Second)
	}
}

// TestDeterministicReplay: the same scripted sequence of starts and
// cancels produces bit-identical completion instants.
func TestDeterministicReplay(t *testing.T) {
	script := func() []completion {
		s := sim.New()
		n := New(s, Config{AggregateBps: 48 * mbps})
		r := &recorder{}
		var xfers []*Transfer
		for i := 0; i < 7; i++ {
			bytes := int64(500_000 + 250_000*i)
			link := float64(10+7*i) * mbps
			at := sim.Time(i) * 300 * sim.Millisecond
			s.Schedule(at, "start", callFunc(func() { xfers = append(xfers, n.Start(bytes, link, r)) }))
		}
		s.Schedule(time900, "cancel", callFunc(func() { n.Cancel(xfers[0]) }))
		s.Run()
		return r.done
	}
	a, b := script(), script()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].at != b[i].at {
			t.Fatalf("completion %d at %v vs %v", i, a[i].at, b[i].at)
		}
	}
}

const time900 = 900 * sim.Millisecond

// TestDrainPastEndOfTimeNeverFires: a share so small that the drain
// instant passes the end of sim.Time once panicked the event loop (the
// wrapped instant lay before now). The drain now waits at MaxTime, and
// a bounded run simply ends with the transfer in flight.
func TestDrainPastEndOfTimeNeverFires(t *testing.T) {
	s := sim.New()
	s.RunUntil(369 * sim.Second)
	n := New(s, Config{AggregateBps: 1e-9 * mbps})
	r := &recorder{}
	slow := n.Start(64<<20, 100*mbps, r)
	// A byte-sized transfer joins and drains within the horizon; each
	// membership change reschedules the slow drain.
	tiny := n.Start(1, 100*mbps, r)
	s.RunUntil(480 * 60 * sim.Second)
	if len(r.done) != 1 || r.done[0].t != tiny {
		t.Fatalf("%d completions, want only the byte-sized transfer", len(r.done))
	}
	if !slow.Active() || slow.Remaining() == 0 {
		t.Fatalf("slow transfer drained (remaining %d)", slow.Remaining())
	}
	if at, ok := s.NextEventTime(); !ok || at != sim.MaxTime {
		t.Fatalf("next event at %v (%v), want MaxTime", at, ok)
	}
}

func TestStartRejectsDegenerateTransfers(t *testing.T) {
	s := sim.New()
	n := New(s, Config{AggregateBps: 8 * mbps})
	for _, tc := range []struct {
		name  string
		bytes int64
		link  float64
	}{
		{"zero bytes", 0, 8 * mbps},
		{"negative bytes", -1, 8 * mbps},
		{"zero link", 1, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", tc.name)
				}
			}()
			n.Start(tc.bytes, tc.link, &recorder{})
		}()
	}
}

// callFunc adapts a closure to sim.Caller for tests.
type callFunc func()

func (f callFunc) Fire(sim.Time) { f() }
