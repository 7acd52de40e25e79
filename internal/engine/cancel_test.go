package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// These tests pin the RunContext cancellation contract the serve daemon
// depends on: a canceled run returns promptly, frees its pool queue,
// and never poisons work shared with concurrent runs — led flights are
// retired for waiters to recompute, joined flights are abandoned so the
// leader's delivery counts stay honest. The interleavings are pinned
// with the in-package task/lead gates, so every count asserted below is
// an invariant, not a race lottery.

// TestRunContextPreCanceled: a run whose context is already dead
// dispatches nothing, so it does no simulation work and reports no
// shard event. A dispatch that raced the canceled context would show in
// only some runs, so the run repeats.
func TestRunContextPreCanceled(t *testing.T) {
	const runs, shards = 200, 64
	fake := newFake("precancel", shards)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	var events, eventful int
	for i := 0; i < runs; i++ {
		n := 0
		r := Runner{Workers: 2, Cache: NewMemCache(), OnEvent: func(Event) { n++ }}
		_, st, err := r.RunContext(ctx, quickCfg(), []Experiment{fake})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v, want context.Canceled", i, err)
		}
		if st.Misses != 0 || st.Hits != 0 {
			t.Fatalf("run %d: stats = %+v, want no shard resolved", i, st)
		}
		if n > 0 {
			events += n
			eventful++
		}
	}
	if eventful > 0 {
		t.Errorf("%d of %d pre-canceled runs emitted %d events in all, want none", eventful, runs, events)
	}
	if got := fake.runs.Load(); got != 0 {
		t.Errorf("RunShard executed %d times after pre-cancel, want 0", got)
	}
}

// TestRunContextCancelMidRunSharedPool: canceling one tenant of a
// shared pool stops its dispatch short and leaves the other tenant —
// and the pool itself — fully functional.
func TestRunContextCancelMidRunSharedPool(t *testing.T) {
	const shardsA, shardsB = 64, 12
	pool := NewPool(2)
	defer pool.Close()
	cache := NewMemCache()
	cfg := quickCfg()

	fakeA := newFake("cancelA", shardsA)
	fakeB := newFake("cancelB", shardsB)

	serial := Runner{Workers: 1, Cache: NewMemCache()}
	refB, _, err := serial.Run(cfg, []Experiment{fakeB})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	rA := Runner{Pool: pool, Cache: cache, taskGate: func(string) {
		if started.Add(1) == 5 {
			cancel()
		}
	}}
	rB := Runner{Pool: pool, Cache: cache}

	var (
		wg         sync.WaitGroup
		stA, stB   Stats
		errA, errB error
		outB       []*Outcome
	)
	wg.Add(2)
	go func() { defer wg.Done(); _, stA, errA = rA.RunContext(ctx, cfg, []Experiment{fakeA}) }()
	go func() { defer wg.Done(); outB, stB, errB = rB.Run(cfg, []Experiment{fakeB}) }()
	wg.Wait()

	if !errors.Is(errA, context.Canceled) {
		t.Fatalf("canceled run err = %v, want context.Canceled", errA)
	}
	if stA.Misses >= shardsA {
		t.Errorf("canceled run computed %d of %d shards; cancellation did not cut dispatch short", stA.Misses, shardsA)
	}
	if errB != nil {
		t.Fatalf("concurrent run failed: %v", errB)
	}
	if stB.Misses != shardsB {
		t.Errorf("concurrent run Misses = %d, want %d", stB.Misses, shardsB)
	}
	if outB[0].Render() != refB[0].Render() {
		t.Error("concurrent run's output differs from serial reference")
	}

	// The pool must still serve new runs after the cancellation: the
	// canceled tenant's queue drained instead of wedging the rotation.
	refA, _, err := serial.Run(cfg, []Experiment{fakeA})
	if err != nil {
		t.Fatal(err)
	}
	again := Runner{Pool: pool, Cache: cache}
	outA, stA2, err := again.Run(cfg, []Experiment{fakeA})
	if err != nil {
		t.Fatalf("post-cancel run on the shared pool failed: %v", err)
	}
	if outA[0].Render() != refA[0].Render() {
		t.Error("post-cancel run's output differs from serial reference")
	}
	if stA.Misses+stA2.Misses != shardsA {
		t.Errorf("cancel-then-rerun computed %d+%d shards, want %d total (cached remainder)",
			stA.Misses, stA2.Misses, shardsA)
	}
}

// TestRunContextCanceledLeaderRetiresFlight: a leader canceled between
// claiming a flight and simulating hands the key back; the waiting run
// recomputes it instead of failing, and the shard is still computed
// exactly once.
func TestRunContextCanceledLeaderRetiresFlight(t *testing.T) {
	fake := newFake("retire", 1)
	cache := NewMemCache()
	flights := NewFlightGroup()
	cfg := quickCfg()

	serial := Runner{Workers: 1, Cache: NewMemCache()}
	ref, _, err := serial.Run(cfg, []Experiment{fake})
	if err != nil {
		t.Fatal(err)
	}
	refRuns := fake.runs.Load()

	ctx, cancel := context.WithCancel(context.Background())
	aLeads := make(chan struct{})
	canceled := make(chan struct{})

	rA := Runner{
		Workers: 1, Cache: cache, flightGroup: flights,
		leadGate: func(key string) {
			close(aLeads)
			awaitWaiters(flights, key, 1)
			<-canceled
		},
	}
	rB := Runner{
		Workers: 1, Cache: cache, flightGroup: flights,
		taskGate: func(string) { <-aLeads },
	}

	var (
		wg         sync.WaitGroup
		errA, errB error
		stB        Stats
		outB       []*Outcome
	)
	wg.Add(2)
	go func() { defer wg.Done(); _, _, errA = rA.RunContext(ctx, cfg, []Experiment{fake}) }()
	go func() { defer wg.Done(); outB, stB, errB = rB.Run(cfg, []Experiment{fake}) }()

	<-aLeads
	// A's leadGate holds until B joins as a waiter; cancel now so A's
	// post-gate context check fires and the flight is retired to B.
	cancel()
	close(canceled)
	wg.Wait()

	if !errors.Is(errA, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", errA)
	}
	if errB != nil {
		t.Fatalf("waiter poisoned by canceled leader: %v", errB)
	}
	if got := fake.runs.Load() - refRuns; got != 1 {
		t.Errorf("RunShard executed %d times, want 1 (waiter recomputes once)", got)
	}
	if stB.Misses != 1 || stB.FlightHits != 0 {
		t.Errorf("waiter stats = %+v, want Misses 1 / FlightHits 0 (it led the retried flight)", stB)
	}
	if outB[0].Render() != ref[0].Render() {
		t.Error("waiter's output differs from serial reference")
	}
}

// TestRunContextCanceledWaiterAbandonsFlight: a waiter canceled while
// parked on someone else's flight withdraws, so the leader's
// FlightShared counts only deliveries someone received.
func TestRunContextCanceledWaiterAbandonsFlight(t *testing.T) {
	fake := newFake("abandon", 1)
	cache := NewMemCache()
	flights := NewFlightGroup()
	cfg := quickCfg()

	serial := Runner{Workers: 1, Cache: NewMemCache()}
	ref, _, err := serial.Run(cfg, []Experiment{fake})
	if err != nil {
		t.Fatal(err)
	}
	refRuns := fake.runs.Load()

	ctx, cancel := context.WithCancel(context.Background())
	aLeads := make(chan struct{})
	bParked := make(chan bool, 1)
	bGone := make(chan struct{})

	rA := Runner{
		Workers: 1, Cache: cache, flightGroup: flights,
		leadGate: func(key string) {
			close(aLeads)
			awaitWaiters(flights, key, 1)
			bParked <- flights.waitersFor(key) == 1
			<-bGone // hold the flight open until the waiter has left
		},
	}
	rB := Runner{
		Workers: 1, Cache: cache, flightGroup: flights,
		taskGate: func(string) { <-aLeads },
	}

	var (
		wg         sync.WaitGroup
		errA, errB error
		stA, stB   Stats
		outA       []*Outcome
	)
	wg.Add(1)
	go func() { defer wg.Done(); outA, stA, errA = rA.Run(cfg, []Experiment{fake}) }()

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, stB, errB = rB.RunContext(ctx, cfg, []Experiment{fake})
	}()
	// Cancel B only once it waits on A's flight, then wait for its run
	// to return before letting A publish.
	parked := <-bParked
	cancel()
	<-done
	close(bGone)
	wg.Wait()

	if !parked {
		t.Fatal("B never joined A's flight as a waiter, so nothing was abandoned")
	}
	if !errors.Is(errB, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", errB)
	}
	if errA != nil {
		t.Fatalf("leader failed: %v", errA)
	}
	if got := fake.runs.Load() - refRuns; got != 1 {
		t.Errorf("RunShard executed %d times, want 1", got)
	}
	if stA.FlightShared != 0 {
		t.Errorf("leader FlightShared = %d, want 0 (its only waiter abandoned)", stA.FlightShared)
	}
	if stB.Misses != 0 || stB.FlightHits != 0 {
		t.Errorf("canceled waiter stats = %+v, want no work recorded", stB)
	}
	if outA[0].Render() != ref[0].Render() {
		t.Error("leader's output differs from serial reference")
	}
}

// TestManifestBusySecondIdenticalRun: two identical concurrent runs
// over one FileCache journal once, not twice — the second opener
// proceeds un-journaled (ErrManifestBusy is absorbed by the runner) and
// the single journal seals complete.
func TestManifestBusySecondIdenticalRun(t *testing.T) {
	const shards = 6
	fake := newFake("busy", shards)
	fc, err := NewFileCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	flights := NewFlightGroup()
	gate := newArrivalGate(2)
	cfg := quickCfg()

	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		stats []Stats
		errs  []error
	)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := Runner{
				Workers: 2, Cache: fc, Manifests: fc.Manifests(),
				flightGroup: flights, taskGate: gate.wait,
			}
			_, st, err := r.Run(cfg, []Experiment{fake})
			mu.Lock()
			defer mu.Unlock()
			stats = append(stats, st)
			errs = append(errs, err)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	mis, err := fc.Manifests().List()
	if err != nil {
		t.Fatal(err)
	}
	if len(mis) != 1 || !mis[0].Complete || mis[0].Cursor != shards {
		t.Fatalf("manifests after concurrent identical runs = %+v, want one complete journal of %d tasks", mis, shards)
	}

	// The surviving journal must vouch for the whole fold: an identical
	// re-run replays everything from cache.
	r := Runner{Workers: 1, Cache: fc, Manifests: fc.Manifests()}
	_, st, err := r.Run(cfg, []Experiment{fake})
	if err != nil {
		t.Fatal(err)
	}
	if st.Resumed != shards || st.Misses != 0 {
		t.Errorf("re-run stats = %+v, want Resumed %d / Misses 0", st, shards)
	}
}
