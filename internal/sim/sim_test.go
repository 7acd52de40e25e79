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

// TestTimeStringMinTime: the most negative Time has no positive
// counterpart, so negating it to format the magnitude recursed forever.
func TestTimeStringMinTime(t *testing.T) {
	if got, want := Time(math.MinInt64).String(), "-9223372036.854776s"; got != want {
		t.Fatalf("Time(MinInt64).String() = %q, want %q", got, want)
	}
}

// TestAddSecondsSaturates: a delay that carries now past the end of
// Time lands exactly at MaxTime instead of wrapping into the past.
func TestAddSecondsSaturates(t *testing.T) {
	for _, c := range []struct {
		t Time
		s float64
	}{
		{0, 1e10},
		{0, 1e300},
		{0, math.Inf(1)},
		{0, math.NaN()},
		{369 * Second, 9.223372e9},
		{MaxTime - Second, 1},
		{MaxTime, 1e-9},
	} {
		if got := AddSeconds(c.t, c.s); got != MaxTime {
			t.Errorf("AddSeconds(%d, %g) = %d, want MaxTime", int64(c.t), c.s, int64(got))
		}
	}
	if got := AddSeconds(MaxTime-Second, 0.999999999); got != MaxTime-1 {
		t.Errorf("last representable sum = %d, want MaxTime-1", int64(got))
	}
	if got := AddSeconds(MaxTime, 0); got != MaxTime {
		t.Errorf("AddSeconds(MaxTime, 0) = %d", int64(got))
	}
}

// TestAddSecondsMatchesFromSeconds: every sum that fits is the plain
// t + FromSeconds(s), bit for bit, across the whole delay range.
func TestAddSecondsMatchesFromSeconds(t *testing.T) {
	rng := NewRNG(7)
	for i := 0; i < 100_000; i++ {
		s := math.Ldexp(rng.Float64(), rng.Intn(64)-30) // 2^-30 .. 2^33 s
		now := Time(rng.Uint64() >> (1 + rng.Intn(63)))
		want := FromSeconds(s)
		if want > MaxTime-now || s*float64(Second)+0.5 >= 1<<63 {
			continue
		}
		if got := AddSeconds(now, s); got != now+want {
			t.Fatalf("AddSeconds(%d, %g) = %d, want %d", int64(now), s, int64(got), int64(now+want))
		}
	}
	if got := AddSeconds(5*Second, -2); got != 3*Second {
		t.Fatalf("negative delay: AddSeconds(5s, -2) = %v", got)
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
	s.Schedule(30, "c", callerFunc(func(Time) { got = append(got, 3) }))
	s.Schedule(10, "a", callerFunc(func(Time) { got = append(got, 1) }))
	s.Schedule(20, "b", callerFunc(func(Time) { got = append(got, 2) }))
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
		s.Schedule(100, "tie", callerFunc(func(Time) { got = append(got, i) }))
	}
	s.Run()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("simultaneous events not FIFO: %v", got)
	}
}

func TestScheduleFromCallback(t *testing.T) {
	s := New()
	var trace []Time
	s.Schedule(5, "first", callerFunc(func(Time) {
		trace = append(trace, s.Now())
		s.Schedule(s.Now()+7, "second", callerFunc(func(Time) { trace = append(trace, s.Now()) }))
	}))
	s.Run()
	if len(trace) != 2 || trace[0] != 5 || trace[1] != 12 {
		t.Fatalf("trace = %v, want [5 12]", trace)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(10, "x", callerFunc(func(Time) { fired = true }))
	e.Cancel()
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Active() {
		t.Fatal("Active() = true after Cancel")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(20, "victim", callerFunc(func(Time) { fired = true }))
	s.Schedule(10, "canceller", callerFunc(func(Time) { e.Cancel() }))
	s.Run()
	if fired {
		t.Fatal("event cancelled at t=10 still fired at t=20")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.Schedule(10, "advance", callerFunc(func(Time) {}))
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.Schedule(5, "past", callerFunc(func(Time) {}))
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	s.RunUntil(10)
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	s.Schedule(s.Now()-1, "neg", callerFunc(func(Time) {}))
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		s.Schedule(at, "e", callerFunc(func(Time) { fired = append(fired, at) }))
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
	s.Schedule(1, "a", callerFunc(func(Time) { count++; s.Stop() }))
	s.Schedule(2, "b", callerFunc(func(Time) { count++ }))
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
		s.Schedule(i, "e", callerFunc(func(Time) {}))
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
	e := s.Schedule(9, "x", callerFunc(func(Time) {}))
	s.Schedule(11, "y", callerFunc(func(Time) {}))
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
			s.Schedule(at, "p", callerFunc(func(Time) { fired = append(fired, at) }))
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
		var rec callerFunc
		n := 0
		rec = func(now Time) {
			n++
			if n < 500 {
				s.Schedule(now+Time(r.Intn(1000)+1), "rec", rec)
				if n%3 == 0 {
					s.Schedule(now+Time(r.Intn(50)), "leaf", callerFunc(func(Time) {}))
				}
			}
		}
		s.Schedule(0, "start", rec)
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
// free list rather than allocating — the arena-reuse contract. The
// measurement loops inside one AllocsPerRun call, so its count is exact:
// AllocsPerRun divides by the number of calls and truncates.
func TestResetReusesPooledEvents(t *testing.T) {
	const rounds = 10
	s := New()
	c := &resetCaller{}
	for i := 0; i < 64; i++ {
		s.Schedule(Time(i)*Millisecond, "warm", c)
	}
	s.RunUntil(32 * Millisecond) // fire some, leave the rest queued
	s.Reset()

	allocs := testing.AllocsPerRun(1, func() {
		for range rounds {
			s.Schedule(Second, "steady", c)
			s.Reset()
		}
	})
	if allocs > 0 {
		t.Fatalf("%v allocations in %d schedules after Reset, want 0", allocs, rounds)
	}
}
