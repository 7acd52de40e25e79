package sim

import "testing"

// The scheduling benchmarks pin the allocation-lean kernel: there is one
// event type, every event is recycled through the free list and addressed
// by a generation-checked Handle, and every callback is a Caller that
// Schedule queues and Reschedule or Rearm move. Scheduling amortizes to
// zero allocations; run with -benchmem to check.

type benchTicker struct {
	s *Simulator
	n int
	b *testing.B
}

func (t *benchTicker) Fire(now Time) {
	t.n++
	if t.n < t.b.N {
		t.s.Schedule(now+Second, "tick", t)
	}
}

func BenchmarkSchedulePooled(b *testing.B) {
	b.ReportAllocs()
	s := New()
	tk := &benchTicker{s: s, b: b}
	s.Schedule(Second, "tick", tk)
	b.ResetTimer()
	s.Run()
}

// BenchmarkCancelReschedule models the fleet's hot pattern: a pending
// completion event moved on every rate change. Reschedule fixes the heap
// in place, one sift where Cancel plus Schedule would take two.
func BenchmarkCancelReschedule(b *testing.B) {
	b.ReportAllocs()
	s := New()
	tk := &benchTicker{s: s, b: b}
	h := s.Schedule(Second, "tick", tk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Reschedule(h, s.Now()+Second+Time(i%64)) {
			h = s.Schedule(s.Now()+Second, "tick", tk)
		}
	}
}

// BenchmarkRearm is the host scheduler's per-core timer: a pending event
// moved to a new time and label with a fresh sequence, in place, one sift
// where Cancel plus Schedule would take two.
func BenchmarkRearm(b *testing.B) {
	b.ReportAllocs()
	s := New()
	tk := &benchTicker{s: s, b: b}
	h := s.Schedule(Second, "tick", tk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Rearm(h, s.Now()+Second+Time(i%64), "tick") {
			h = s.Schedule(s.Now()+Second, "tick", tk)
		}
	}
}

// BenchmarkHeapChurn measures raw push/pop through a heap of 1024
// pending events, the per-event floor of every fleet shard. Its events
// fire a no-op, so each iteration's one push and one pop keep the
// population at 1024.
func BenchmarkHeapChurn(b *testing.B) {
	b.ReportAllocs()
	s := New()
	r := NewRNG(1)
	const population = 1024
	for i := 0; i < population; i++ {
		s.Schedule(Time(r.Intn(1_000_000)+1), "seed", nopCaller{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(s.now+Time(r.Intn(1_000_000)+1), "churn", nopCaller{})
		s.step()
	}
	b.StopTimer()
	if n := s.Pending(); n != population {
		b.Fatalf("heap holds %d events after the loop, want %d", n, population)
	}
}

func BenchmarkBinomial(b *testing.B) {
	b.ReportAllocs()
	r := NewRNG(3)
	b.Run("small-mean", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Binomial(600, 0.01)
		}
	})
	b.Run("normal-approx", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Binomial(600, 0.3)
		}
	})
}
