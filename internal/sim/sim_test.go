package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{Microsecond, "1.000us"},
		{1500 * Microsecond, "1.500ms"},
		{2 * Second, "2.000000s"},
		{-Second, "-1.000000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	for _, s := range []float64{0, 1, 0.5, 1e-9, 3.25, 1e4} {
		got := FromSeconds(s).Seconds()
		if math.Abs(got-s) > 1e-9*math.Max(1, s) {
			t.Errorf("FromSeconds(%v).Seconds() = %v", s, got)
		}
	}
	if FromSeconds(-2) != -2*Second {
		t.Errorf("FromSeconds(-2) = %v", FromSeconds(-2))
	}
}

func TestFromDuration(t *testing.T) {
	if FromDuration(3*time.Millisecond) != 3*Millisecond {
		t.Fatal("FromDuration mismatch")
	}
	if (5 * Millisecond).Duration() != 5*time.Millisecond {
		t.Fatal("Duration mismatch")
	}
}

func TestEventOrdering(t *testing.T) {
	s := New()
	var got []int
	s.At(30, "c", func() { got = append(got, 3) })
	s.At(10, "a", func() { got = append(got, 1) })
	s.At(20, "b", func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if s.Now() != 30 {
		t.Fatalf("clock = %v, want 30", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, "tie", func() { got = append(got, i) })
	}
	s.Run()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("simultaneous events not FIFO: %v", got)
	}
}

func TestScheduleFromCallback(t *testing.T) {
	s := New()
	var trace []Time
	s.At(5, "first", func() {
		trace = append(trace, s.Now())
		s.After(7, "second", func() { trace = append(trace, s.Now()) })
	})
	s.Run()
	if len(trace) != 2 || trace[0] != 5 || trace[1] != 12 {
		t.Fatalf("trace = %v, want [5 12]", trace)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.At(10, "x", func() { fired = true })
	e.Cancel()
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	s := New()
	fired := false
	e := s.At(20, "victim", func() { fired = true })
	s.At(10, "canceller", func() { e.Cancel() })
	s.Run()
	if fired {
		t.Fatal("event cancelled at t=10 still fired at t=20")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, "advance", func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(5, "past", func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	s.After(-1, "neg", func() {})
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		s.At(at, "e", func() { fired = append(fired, at) })
	}
	s.RunUntil(15)
	if len(fired) != 3 {
		t.Fatalf("fired %v, want events at 5,10,15", fired)
	}
	if s.Now() != 15 {
		t.Fatalf("clock = %v, want 15", s.Now())
	}
	s.RunUntil(100)
	if len(fired) != 4 || s.Now() != 100 {
		t.Fatalf("after second RunUntil: fired=%v now=%v", fired, s.Now())
	}
}

func TestRunUntilAdvancesEmptyClock(t *testing.T) {
	s := New()
	s.RunUntil(42)
	if s.Now() != 42 {
		t.Fatalf("clock = %v, want 42", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	s.At(1, "a", func() { count++; s.Stop() })
	s.At(2, "b", func() { count++ })
	s.Run()
	if count != 1 {
		t.Fatalf("Stop did not halt the loop: count = %d", count)
	}
	s.Run() // resumes with remaining events
	if count != 2 {
		t.Fatalf("second Run did not fire remaining event: count = %d", count)
	}
}

func TestFiredCounterAndPending(t *testing.T) {
	s := New()
	for i := Time(1); i <= 5; i++ {
		s.At(i, "e", func() {})
	}
	if s.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", s.Pending())
	}
	s.Run()
	if s.Fired() != 5 {
		t.Fatalf("Fired = %d, want 5", s.Fired())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after Run, want 0", s.Pending())
	}
}

func TestNextEventTime(t *testing.T) {
	s := New()
	if _, ok := s.NextEventTime(); ok {
		t.Fatal("NextEventTime on empty queue reported an event")
	}
	e := s.At(9, "x", func() {})
	s.At(11, "y", func() {})
	if at, ok := s.NextEventTime(); !ok || at != 9 {
		t.Fatalf("NextEventTime = %v,%v want 9,true", at, ok)
	}
	e.Cancel()
	if at, ok := s.NextEventTime(); !ok || at != 11 {
		t.Fatalf("NextEventTime after cancel = %v,%v want 11,true", at, ok)
	}
}

// Property: any batch of events fires in nondecreasing time order, and
// insertion order breaks ties.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New()
		var fired []Time
		for _, d := range delays {
			at := Time(d)
			s.At(at, "p", func() { fired = append(fired, at) })
		}
		s.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different-seed RNGs coincided %d/1000 times", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	s1 := r.Split()
	v1 := s1.Uint64()
	// Splitting again from the parent must not replay the child's stream.
	s2 := r.Split()
	if s2.Uint64() == v1 {
		t.Fatal("split streams identical")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(2)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[r.Intn(10)]++
	}
	for v, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("Intn(10) value %d count %d, want ~1000", v, c)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(3)
	const n = 50000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("Normal stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestRNGJitter(t *testing.T) {
	r := NewRNG(4)
	if r.Jitter(0) != 1 {
		t.Fatal("Jitter(0) != 1")
	}
	for i := 0; i < 10000; i++ {
		j := r.Jitter(0.3)
		if j < 0.5 || j > 1.5 {
			t.Fatalf("Jitter out of clamp range: %v", j)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(5)
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(3)
	}
	if mean := sum / n; math.Abs(mean-3) > 0.1 {
		t.Errorf("Exp mean = %v, want ~3", mean)
	}
}

func TestRNGStateRoundTrip(t *testing.T) {
	r := NewRNG(9)
	r.Uint64()
	saved := r.State()
	a := r.Uint64()
	r.SetState(saved)
	if b := r.Uint64(); a != b {
		t.Fatalf("state restore diverged: %v vs %v", a, b)
	}
}

func TestSimulatorDeterminism(t *testing.T) {
	run := func() (uint64, Time) {
		s := New()
		r := NewRNG(11)
		var rec func()
		n := 0
		rec = func() {
			n++
			if n < 500 {
				s.After(Time(r.Intn(1000)+1), "rec", rec)
				if n%3 == 0 {
					s.After(Time(r.Intn(50)), "leaf", func() {})
				}
			}
		}
		s.At(0, "start", rec)
		s.Run()
		return s.Fired(), s.Now()
	}
	f1, t1 := run()
	f2, t2 := run()
	if f1 != f2 || t1 != t2 {
		t.Fatalf("two identical runs diverged: (%d,%v) vs (%d,%v)", f1, t1, f2, t2)
	}
}

// resetCaller counts fires, standing in for a model arm.
type resetCaller struct{ fired int }

func (c *resetCaller) Fire(now Time) { c.fired++ }

// TestResetRestoresZeroState: a reset simulator must be observationally
// identical to a fresh one — clock, sequence order, fired counter — and
// Handles from before the reset must degrade to no-ops.
func TestResetRestoresZeroState(t *testing.T) {
	s := New()
	c := &resetCaller{}
	s.Schedule(Second, "a", c)
	stale := s.Schedule(2*Second, "b", c)
	s.RunUntil(Second) // fires "a", leaves "b" queued

	s.Reset()
	if s.Now() != 0 || s.Fired() != 0 || s.Pending() != 0 {
		t.Fatalf("reset left now=%v fired=%d pending=%d", s.Now(), s.Fired(), s.Pending())
	}
	if stale.Active() {
		t.Fatal("pre-reset handle still active")
	}
	stale.Cancel() // must be a no-op on whatever reused the event

	// A schedule/run cycle after Reset must behave exactly like on a
	// fresh simulator, including tie-breaking by insertion order.
	var order []string
	rec := func(name string) Caller { return callerFunc(func(Time) { order = append(order, name) }) }
	s.Schedule(Second, "x", rec("x"))
	s.Schedule(Second, "y", rec("y"))
	s.Run()
	if len(order) != 2 || order[0] != "x" || order[1] != "y" {
		t.Fatalf("post-reset tie order %v, want [x y]", order)
	}
	if s.Fired() != 2 {
		t.Fatalf("post-reset fired %d, want 2", s.Fired())
	}
	if c.fired != 1 {
		t.Fatalf("pre-reset callbacks fired %d times, want 1", c.fired)
	}
}

// callerFunc adapts a func to Caller for tests.
type callerFunc func(Time)

func (f callerFunc) Fire(now Time) { f(now) }

// TestResetReusesPooledEvents: after a Reset, scheduling draws from the
// free pool rather than allocating — the arena-reuse contract.
func TestResetReusesPooledEvents(t *testing.T) {
	s := New()
	c := &resetCaller{}
	for i := 0; i < 64; i++ {
		s.Schedule(Time(i)*Millisecond, "warm", c)
	}
	s.RunUntil(32 * Millisecond) // fire some, leave the rest queued
	s.Reset()

	allocs := testing.AllocsPerRun(10, func() {
		h := s.Schedule(Second, "steady", c)
		s.Reset()
		_ = h
	})
	if allocs > 0 {
		t.Fatalf("schedule after Reset allocates %.1f per op, want 0", allocs)
	}
}
