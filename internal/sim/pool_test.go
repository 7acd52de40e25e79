package sim

import (
	"math"
	"testing"
)

// fireCounter is a minimal Caller for pooled-event tests.
type fireCounter struct {
	fired []Time
}

func (c *fireCounter) Fire(now Time) { c.fired = append(c.fired, now) }

func TestScheduleFiresWithScheduledTime(t *testing.T) {
	s := New()
	c := &fireCounter{}
	s.Schedule(10, "a", c)
	s.Schedule(5, "b", c)
	s.Run()
	if len(c.fired) != 2 || c.fired[0] != 5 || c.fired[1] != 10 {
		t.Fatalf("pooled events fired %v, want [5 10]", c.fired)
	}
}

func TestHandleCancelWhileQueued(t *testing.T) {
	s := New()
	c := &fireCounter{}
	h := s.Schedule(10, "victim", c)
	if !h.Active() {
		t.Fatal("freshly scheduled handle not active")
	}
	h.Cancel()
	if h.Active() {
		t.Fatal("cancelled handle still active")
	}
	s.Run()
	if len(c.fired) != 0 {
		t.Fatal("cancelled pooled event fired")
	}
}

func TestHandleCancelAfterFireIsNoOp(t *testing.T) {
	t.Run("Schedule", func(t *testing.T) {
		s := New()
		c := &fireCounter{}
		h := s.Schedule(10, "x", c)
		s.Run()
		if len(c.fired) != 1 {
			t.Fatalf("event fired %d times, want 1", len(c.fired))
		}
		// The occurrence fired and its event was recycled; a late
		// Cancel must be a generation-checked no-op.
		h.Cancel()
		if h.Active() {
			t.Fatal("fired handle reports active")
		}
		h2 := s.Schedule(20, "x", c)
		if h2.e != h.e {
			t.Fatal("fired event was not recycled by the next schedule")
		}
		h.Cancel() // stale handle again, now with h2 holding the reused event
		s.Run()
		if len(c.fired) != 2 {
			t.Fatal("stale Cancel killed a reused event")
		}
	})
}

// TestPooledEventReuse pins the recycling contract: a fired pooled event
// is handed back by the very next Schedule, with a bumped generation so
// stale handles cannot touch the new occurrence.
func TestPooledEventReuse(t *testing.T) {
	s := New()
	c := &fireCounter{}
	h1 := s.Schedule(1, "first", c)
	s.Run()
	h2 := s.Schedule(2, "second", c)
	if h1.e != h2.e {
		t.Fatal("fired pooled event was not recycled by the next Schedule")
	}
	if h1.gen == h2.gen {
		t.Fatal("recycled event kept its generation")
	}
	h1.Cancel() // stale: must not cancel h2's occurrence
	if !h2.Active() {
		t.Fatal("stale handle cancelled the reused event")
	}
	s.Run()
	if len(c.fired) != 2 {
		t.Fatalf("fired %v, want two occurrences", c.fired)
	}
}

// TestCancelledPooledEventReaped: a cancelled pooled occurrence leaves the
// queue and is recycled at once, never fires, and the next Schedule
// reuses a pooled event safely.
func TestCancelledPooledEventReaped(t *testing.T) {
	s := New()
	c := &fireCounter{}
	h := s.Schedule(5, "doomed", c)
	s.Schedule(10, "survivor", c)
	h.Cancel()
	s.Run()
	if len(c.fired) != 1 || c.fired[0] != 10 {
		t.Fatalf("fired %v, want only the survivor at 10", c.fired)
	}
	h3 := s.Schedule(20, "reuse", c)
	if !h3.Active() {
		t.Fatal("event reused after cancellation reap is not active")
	}
	s.Run()
	if len(c.fired) != 2 {
		t.Fatal("reused event did not fire")
	}
}

func TestScheduleFromFireReusesSameEvent(t *testing.T) {
	s := New()
	r := &rescheduler{s: s}
	r.h = s.Schedule(1, "tick", r)
	s.Run()
	if r.count != 5 {
		t.Fatalf("fired %d ticks, want 5", r.count)
	}
}

type rescheduler struct {
	s     *Simulator
	h     Handle
	count int
}

func (r *rescheduler) Fire(now Time) {
	r.count++
	if r.count < 5 {
		// The pool hands the just-fired event straight back.
		r.h = r.s.Schedule(now+1, "tick", r)
	}
}

func TestReschedule(t *testing.T) {
	s := New()
	c := &fireCounter{}
	h := s.Schedule(10, "move", c)
	if !s.Reschedule(h, 30) {
		t.Fatal("reschedule of a queued handle failed")
	}
	s.Schedule(20, "other", c)
	s.Run()
	if len(c.fired) != 2 || c.fired[0] != 20 || c.fired[1] != 30 {
		t.Fatalf("fired %v, want [20 30]", c.fired)
	}
	if s.Reschedule(h, 40) {
		t.Fatal("reschedule of a fired handle succeeded")
	}
	h2 := s.Schedule(50, "late", c)
	h2.Cancel()
	if s.Reschedule(h2, 60) {
		t.Fatal("reschedule of a cancelled handle succeeded")
	}
}

func TestRescheduleEarlier(t *testing.T) {
	s := New()
	c := &fireCounter{}
	h := s.Schedule(100, "move", c)
	s.Schedule(50, "mid", c)
	if !s.Reschedule(h, 10) {
		t.Fatal("reschedule earlier failed")
	}
	s.Run()
	if len(c.fired) != 2 || c.fired[0] != 10 || c.fired[1] != 50 {
		t.Fatalf("fired %v, want [10 50]", c.fired)
	}
}

func TestZeroHandleInert(t *testing.T) {
	var h Handle
	h.Cancel() // must not panic
	if h.Active() {
		t.Fatal("zero handle active")
	}
	if (New()).Reschedule(h, 10) {
		t.Fatal("zero handle rescheduled")
	}
}

// rearmRecord is one fire observed by TestRearmMatchesCancelSchedule.
type rearmRecord struct {
	id int // slot index, or -1 for the ticker
	at Time
}

// rearmWorld is one side of TestRearmMatchesCancelSchedule: a
// self-rescheduling ticker that cancels and re-arms a few slots at
// random, on coarse times so that ties are common and the sequence
// numbers decide the order. rearm selects Rearm with a Schedule
// fallback; otherwise every re-arm is Cancel followed by Schedule.
type rearmWorld struct {
	s       *Simulator
	r       *RNG
	rearm   bool
	slots   [4]Handle
	callers [4]*rearmSlot
	log     []rearmRecord
	fires   int
	peak    int
}

type rearmSlot struct {
	w  *rearmWorld
	id int
}

// Fire records the slot and sometimes re-arms the slot itself, whose
// Handle went stale when its event was recycled just before firing.
func (c *rearmSlot) Fire(now Time) {
	c.w.log = append(c.w.log, rearmRecord{c.id, now})
	if c.w.r.Float64() < 0.3 {
		c.w.arm(c.id, now+Time(c.w.r.Intn(4)))
	}
}

func (w *rearmWorld) arm(i int, at Time) {
	if w.rearm {
		if !w.s.Rearm(w.slots[i], at, "slot") {
			w.slots[i] = w.s.Schedule(at, "slot", w.callers[i])
		}
		return
	}
	w.slots[i].Cancel()
	w.slots[i] = w.s.Schedule(at, "slot", w.callers[i])
}

func (w *rearmWorld) Fire(now Time) {
	w.log = append(w.log, rearmRecord{-1, now})
	w.peak = max(w.peak, w.s.Pending())
	for ops := w.r.Intn(4); ops > 0; ops-- {
		i := w.r.Intn(len(w.slots))
		if w.r.Float64() < 0.25 {
			w.slots[i].Cancel()
			continue
		}
		w.arm(i, now+Time(w.r.Intn(12)))
	}
	if w.fires++; w.fires < 200 {
		w.s.Schedule(now+Time(w.r.Intn(3)+1), "ticker", w)
	}
}

func runRearmWorld(seed uint64, rearm bool) *rearmWorld {
	w := &rearmWorld{s: New(), r: NewRNG(seed), rearm: rearm}
	for i := range w.callers {
		w.callers[i] = &rearmSlot{w: w, id: i}
	}
	w.s.Schedule(0, "ticker", w)
	w.s.Run()
	return w
}

// TestRearmMatchesCancelSchedule pins Rearm's contract: for pop order it
// is exactly Cancel followed by Schedule, so two runs that differ only in
// which of the two they use fire the same callbacks at the same times in
// the same order, and Rearm never leaves more events in the queue.
func TestRearmMatchesCancelSchedule(t *testing.T) {
	peakCancel, peakRearm := 0, 0
	for seed := uint64(0); seed < 300; seed++ {
		want := runRearmWorld(seed, false)
		got := runRearmWorld(seed, true)
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: %d fires with Rearm, %d with Cancel+Schedule", seed, len(got.log), len(want.log))
		}
		for i := range want.log {
			if got.log[i] != want.log[i] {
				t.Fatalf("seed %d: fire %d is %+v with Rearm, %+v with Cancel+Schedule", seed, i, got.log[i], want.log[i])
			}
		}
		if got.s.Fired() != want.s.Fired() || got.s.seq != want.s.seq {
			t.Fatalf("seed %d: Fired/seq %d/%d with Rearm, %d/%d with Cancel+Schedule",
				seed, got.s.Fired(), got.s.seq, want.s.Fired(), want.s.seq)
		}
		if got.peak > want.peak {
			t.Fatalf("seed %d: peak Pending %d with Rearm, above %d with Cancel+Schedule", seed, got.peak, want.peak)
		}
		peakCancel, peakRearm = max(peakCancel, want.peak), max(peakRearm, got.peak)
	}
	t.Logf("peak Pending over 300 seeds: %d with Cancel+Schedule, %d with Rearm", peakCancel, peakRearm)
}

// TestRearmInactiveHandle: Rearm on a zero, stale, cancelled or fired
// Handle reports false and leaves the queue and the sequence counter
// alone, because the caller's fallback Schedule takes the next sequence.
func TestRearmInactiveHandle(t *testing.T) {
	s := New()
	c := &fireCounter{}
	fired := s.Schedule(1, "fired", c)
	s.Run()
	live := s.Schedule(5, "live", c) // reuses fired's event
	cancelled := s.Schedule(6, "cancelled", c)
	cancelled.Cancel()
	for _, tc := range []struct {
		name string
		h    Handle
	}{{"zero", Handle{}}, {"fired and stale", fired}, {"cancelled", cancelled}} {
		seq, pending := s.seq, s.Pending()
		if s.Rearm(tc.h, 9, "moved") {
			t.Fatalf("Rearm of a %s handle succeeded", tc.name)
		}
		if s.seq != seq || s.Pending() != pending {
			t.Fatalf("Rearm of a %s handle moved seq %d→%d, Pending %d→%d", tc.name, seq, s.seq, pending, s.Pending())
		}
	}
	if !live.Active() {
		t.Fatal("Rearm through a stale handle touched the event's new occurrence")
	}
	s.Run()
	if len(c.fired) != 2 || c.fired[1] != 5 {
		t.Fatalf("fired %v, want [1 5]", c.fired)
	}
}

func TestRearmInPastPanics(t *testing.T) {
	s := New()
	h := s.Schedule(20, "pending", nopCaller{})
	s.RunUntil(10)
	defer func() {
		if recover() == nil {
			t.Fatal("Rearm before now did not panic")
		}
	}()
	s.Rearm(h, 5, "past")
}

// TestPooledDeterminism runs an event storm twice through the pooled API
// and requires identical fire counts — pooling must not perturb ordering.
func TestPooledDeterminism(t *testing.T) {
	run := func() (uint64, Time) {
		s := New()
		r := NewRNG(17)
		d := &stormDriver{s: s, r: r}
		d.h = s.Schedule(0, "storm", d)
		s.Run()
		return s.Fired(), s.Now()
	}
	f1, t1 := run()
	f2, t2 := run()
	if f1 != f2 || t1 != t2 {
		t.Fatalf("pooled runs diverged: (%d,%v) vs (%d,%v)", f1, t1, f2, t2)
	}
}

type stormDriver struct {
	s *Simulator
	r *RNG
	h Handle
	n int
}

func (d *stormDriver) Fire(now Time) {
	d.n++
	if d.n >= 500 {
		return
	}
	d.h = d.s.Schedule(now+Time(d.r.Intn(1000)+1), "storm", d)
	if d.n%3 == 0 {
		// Churn the pool: schedule and sometimes cancel a second event.
		h := d.s.Schedule(now+Time(d.r.Intn(50)+1), "leaf", nopCaller{})
		if d.r.Float64() < 0.5 {
			h.Cancel()
		}
	}
	if d.n%7 == 0 {
		d.s.Reschedule(d.h, now+Time(d.r.Intn(2000)+1))
	}
}

type nopCaller struct{}

func (nopCaller) Fire(Time) {}

func TestBinomialEdgeCases(t *testing.T) {
	r := NewRNG(1)
	if got := r.Binomial(0, 0.5); got != 0 {
		t.Fatalf("Binomial(0, .5) = %d", got)
	}
	if got := r.Binomial(100, 0); got != 0 {
		t.Fatalf("Binomial(100, 0) = %d", got)
	}
	if got := r.Binomial(100, 1); got != 100 {
		t.Fatalf("Binomial(100, 1) = %d", got)
	}
	for i := 0; i < 1000; i++ {
		n := int64(r.Intn(1000) + 1)
		p := r.Float64()
		k := r.Binomial(n, p)
		if k < 0 || k > n {
			t.Fatalf("Binomial(%d, %g) = %d out of range", n, p, k)
		}
	}
}

// TestBinomialMoments checks mean and variance across the three sampling
// regimes (Bernoulli counting, CDF inversion, normal approximation).
func TestBinomialMoments(t *testing.T) {
	r := NewRNG(2)
	cases := []struct {
		n int64
		p float64
	}{
		{10, 0.3},    // Bernoulli counting
		{1000, 0.01}, // CDF inversion (small mean)
		{1000, 0.99}, // mirrored inversion
		{5000, 0.4},  // normal approximation
	}
	for _, c := range cases {
		const draws = 20000
		var sum, sumsq float64
		for i := 0; i < draws; i++ {
			k := float64(r.Binomial(c.n, c.p))
			sum += k
			sumsq += k * k
		}
		mean := sum / draws
		variance := sumsq/draws - mean*mean
		wantMean := float64(c.n) * c.p
		wantVar := wantMean * (1 - c.p)
		seMean := math.Sqrt(wantVar / draws)
		if math.Abs(mean-wantMean) > 6*seMean+0.02 {
			t.Errorf("Binomial(%d,%g) mean %.3f, want %.3f", c.n, c.p, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.1*wantVar+0.05 {
			t.Errorf("Binomial(%d,%g) variance %.3f, want %.3f", c.n, c.p, variance, wantVar)
		}
	}
}
