package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRoundRobinFairness pins the scheduling contract: with one
// worker and three runs queued, execution interleaves the runs — no run
// is served twice before every other pending run is served once.
func TestPoolRoundRobinFairness(t *testing.T) {
	p := NewPool(1)
	defer p.Close()

	var (
		mu      sync.Mutex
		order   []string
		wg      sync.WaitGroup
		started = make(chan struct{})
		release = make(chan struct{})
	)
	record := func(id string) func() {
		return func() {
			defer wg.Done()
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		}
	}
	a, b, c := p.register(), p.register(), p.register()

	// The first unit parks the pool's only worker until every other
	// unit is queued, so the pop order below is deterministic.
	wg.Add(1)
	a.submit(func() {
		defer wg.Done()
		mu.Lock()
		order = append(order, "a0")
		mu.Unlock()
		close(started)
		<-release
	})
	<-started
	for _, sub := range []struct {
		r   *poolRun
		ids []string
	}{{a, []string{"a1", "a2"}}, {b, []string{"b0", "b1", "b2"}}, {c, []string{"c0", "c1", "c2"}}} {
		for _, id := range sub.ids {
			wg.Add(1)
			sub.r.submit(record(id))
		}
	}
	close(release)
	wg.Wait()

	want := []string{"a0", "a1", "b0", "c0", "a2", "b1", "c1", "b2", "c2"}
	if len(order) != len(want) {
		t.Fatalf("executed %d units, want %d: %v", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

// TestPoolWorkerCap verifies the pool never runs more units at once
// than its worker bound, however many are queued.
func TestPoolWorkerCap(t *testing.T) {
	p := NewPool(2)
	defer p.Close()

	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	r := p.register()
	for i := 0; i < 16; i++ {
		wg.Add(1)
		r.submit(func() {
			defer wg.Done()
			c := cur.Add(1)
			for {
				m := peak.Load()
				if c <= m || peak.CompareAndSwap(m, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
		})
	}
	wg.Wait()
	if got := peak.Load(); got > 2 {
		t.Errorf("pool ran %d units concurrently, bound is 2", got)
	}
	if got := peak.Load(); got < 1 {
		t.Errorf("pool never ran a unit (peak %d)", got)
	}
}

// TestRunWithoutPoolLeavesNoWorkers: a Runner without a shared Pool
// executes on a private one, which it must close on every path — a run
// that completes and a run that fails alike. An idle worker leaked per
// run would pile up in any process that calls Run repeatedly.
func TestRunWithoutPoolLeavesNoWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	bad := newFake("leakbad", 40)
	bad.fail = 17
	for _, e := range []*fakeExp{newFake("leak", 40), bad} {
		_, _, err := (&Runner{Workers: 4}).Run(quickCfg(), []Experiment{e})
		if (err != nil) != (e == bad) {
			t.Fatalf("%s: err = %v", e.name, err)
		}
	}
	// Close returns once the workers are past their last instruction
	// that touches the pool; give them the moment they need to exit.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after two private-pool runs, %d before", after, before)
	}
}

// TestDefaultPool pins the process-wide pool: one instance, GOMAXPROCS
// workers, a single shared flight group.
func TestDefaultPool(t *testing.T) {
	p := DefaultPool()
	if p != DefaultPool() {
		t.Error("DefaultPool returned distinct pools")
	}
	if got, want := p.Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default pool has %d workers, want GOMAXPROCS=%d", got, want)
	}
	if p.Flights() == nil || p.Flights() != p.Flights() {
		t.Error("default pool's flight group is not a stable singleton")
	}
}
