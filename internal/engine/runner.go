package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vmdg/internal/core"
)

// Stats summarizes one Runner.Run call.
type Stats struct {
	// Experiments and Shards count the completed work.
	Experiments int
	Shards      int
	// Hits and Misses partition the shards: Misses were computed, Hits
	// were supplied without compute — from the cache, or from a
	// shared-scope sibling computed in the same run.
	Hits, Misses int
	// Resumed counts the tasks a prior run's fold manifest vouched for:
	// their cached payloads verified against the journaled digests, so
	// the fold replays them without simulation. Zero when the run has
	// no manifest store or no matching manifest.
	Resumed int
	// FlightHits counts the tasks this run received from another run's
	// in-flight computation (single-flight dedup; a subset of Hits).
	// FlightShared counts the deliveries of this run's computed
	// payloads to runs that were waiting on them. Both are zero unless
	// runs share a FlightGroup — directly or through a shared Pool.
	FlightHits, FlightShared int
	// Elapsed is the wall-clock duration of the whole run.
	Elapsed time.Duration
}

// EventKind classifies a progress Event.
type EventKind uint8

const (
	// EventShardComputed: a shard was simulated on the pool.
	EventShardComputed EventKind = iota
	// EventShardCached: a shard was supplied from the cache without
	// compute.
	EventShardCached
	// EventExperimentMerged: an experiment's outcome is complete.
	EventExperimentMerged
)

// Event is one progress notification from a Run call. Shard events
// carry the shard's index within its experiment plus the run-wide task
// counters; merge events carry the experiment counters instead.
type Event struct {
	// Kind says what completed.
	Kind EventKind
	// Experiment names the experiment the event belongs to. A task
	// shared by several experiments (equal cache keys) is attributed
	// to the first.
	Experiment string
	// Shard and Shards locate a shard event within its experiment.
	Shard, Shards int
	// Done and Total count tasks folded so far across the whole run
	// (shard events), or experiments merged so far (merge events).
	Done, Total int
}

// Runner executes experiments on a worker Pool.
type Runner struct {
	// Workers sizes the private Pool a Run call executes on when Pool
	// is nil; <= 0 means GOMAXPROCS. The private pool lives for that
	// one call.
	Workers int
	// Pool, if non-nil, is the shared worker pool this run executes on
	// (Workers is then unused): concurrent Run calls on the same Pool
	// split its workers fairly (round-robin over runs) rather than
	// oversubscribing the machine, and share its single-flight group.
	// Fold order, the reorder window, and manifest journaling are
	// per-run and unaffected.
	Pool *Pool
	// Cache, if non-nil, supplies and stores shard payloads.
	Cache Cache
	// Manifests, if non-nil (and Cache is set), makes the fold durable:
	// the run journals every folded task to a manifest keyed by the
	// run's canonical task list, and a later identical run resumes at
	// the first task the journal + cache can no longer vouch for,
	// replaying the verified prefix from cache instead of simulating.
	Manifests *ManifestStore
	// OnEvent, if non-nil, observes the run's progress: exactly one
	// shard event per task, then one merge event per experiment. It is
	// always called from the collector goroutine (the caller's), in
	// deterministic task order for every worker count, so
	// implementations need no locking.
	OnEvent func(Event)

	// Test hooks (in-package concurrency tests only). flightGroup, if
	// non-nil, replaces the Pool's single-flight group, so runs on
	// private pools can dedupe with each other. taskGate is called at
	// the start of every task, before the cache lookup; leadGate is
	// called after the run claims a flight's leadership, before it
	// computes. Both receive the task's cache key and let tests pin the
	// interleaving of concurrent runs deterministically.
	flightGroup *FlightGroup
	taskGate    func(key string)
	leadGate    func(key string)
}

// ShardScoper lets an experiment give each shard its own cache scope.
// Experiments whose shard space concatenates independent sub-scenarios
// (fleet variants, sweep points) implement it so a sub-scenario's
// cached shards survive re-indexing when the list around them changes:
// widening a sweep axis inserts new points without re-keying — and
// therefore without re-simulating — any point that already ran.
type ShardScoper interface {
	Experiment
	// ShardScopes maps every flat shard index to its cache scope and
	// scope-local shard index, in one call so the runner resolves the
	// experiment's sub-scenarios once, not once per shard. Each scope
	// must describe everything RunShard computes for that shard except
	// the fields the config's provenance already carries.
	ShardScopes(cfg core.Config) (scopes []string, locals []int)
}

// shardScopes resolves the cache identity of an experiment's shards:
// per-shard for ShardScoper experiments, the experiment-wide scope
// with flat indices otherwise.
func shardScopes(e Experiment, cfg core.Config, n int) (scopes []string, locals []int) {
	if ss, ok := e.(ShardScoper); ok {
		return ss.ShardScopes(cfg)
	}
	scopes = make([]string, n)
	locals = make([]int, n)
	scope := e.Scope()
	for s := 0; s < n; s++ {
		scopes[s], locals[s] = scope, s
	}
	return scopes, locals
}

// slot addresses one (experiment, shard) payload cell.
type slot struct {
	exp   int // index into exps
	shard int
}

// task is one unit in the pool: a unique cache key plus every slot it
// fills. Experiments sharing a scope (Figures 7 and 8) collapse to one
// task per shard, so their common measurements run once even on a cold
// cache.
type task struct {
	key   string
	dests []slot
}

// taskResult carries one computed payload from a worker to the
// collector; payload is nil when the task was skipped after a failure,
// and cached marks payloads served without compute.
type taskResult struct {
	ti      int
	payload []byte
	cached  bool
}

// windowPerWorker is how many tasks per pool worker dispatch may run
// ahead of the in-order fold. While one worker holds a slow shard near
// the fold cursor, the others run the tasks behind it only as far as
// the window reaches. At two workers a window of 64 covers the paper
// pass's 59 tasks, so the fold never holds dispatch back there. The
// pass's slowest shard is multivm's, about 0.1 s in a traced pass on a
// 2-vCPU Xeon. The bound is a constant per worker, so pending payloads
// do not grow with the shard count.
const windowPerWorker = 32

// reorderWindow bounds how far task dispatch may run ahead of the
// in-order fold: the collector keeps at most this many tasks dispatched
// and not yet folded, so it holds at most this many out-of-order
// payloads and memory stays constant no matter how many shards a run
// has. It never exceeds the run's task count, so a small run (a serve
// warm replay is two tasks) allocates no result slots or pending
// capacity it cannot use.
func reorderWindow(tasks, workers int) int {
	return min(tasks, windowPerWorker*workers)
}

// flights resolves the single-flight group this run dedupes through:
// the test hook's, else the shared Pool's, else none (a single run
// never needs one — equal keys already collapse into one task).
func (r *Runner) flights() *FlightGroup {
	if r.flightGroup != nil {
		return r.flightGroup
	}
	if r.Pool != nil {
		return r.Pool.Flights()
	}
	return nil
}

// Run executes every shard of every experiment on the pool and merges
// in input order. Outcomes are returned in input order; their content is
// independent of the worker count, because merging is a pure function of
// the shard payloads. On shard failure the first error (in task order)
// is returned and remaining work is abandoned.
//
// Every experiment merges as a streaming fold: each payload is
// absorbed, in shard order, as soon as the in-order prefix of tasks
// completes — so the runner itself holds no more payloads than the
// reorder window, whatever the shard count.
func (r *Runner) Run(cfg core.Config, exps []Experiment) ([]*Outcome, Stats, error) {
	return r.RunContext(context.Background(), cfg, exps)
}

// RunContext is Run with a cancellation contract, the shape a
// multi-tenant server needs: once ctx ends, the collector dispatches no
// further task, tasks not yet started short-circuit, and the run returns
// ctx's error once its running tasks finish — without disturbing any
// other run sharing the Pool, the cache, or the FlightGroup. A
// canceled run that leads a shared flight either finishes that one
// shard normally (the payload is published to cache and waiters as
// usual) or, if it had not started simulating, retires the flight so a
// waiting run re-contends and computes it instead; a canceled run
// waiting on someone else's flight withdraws. The manifest journal, if
// any, closes resumable — a later identical run picks up at the
// journaled fold cursor exactly as after a crash.
func (r *Runner) RunContext(ctx context.Context, cfg core.Config, exps []Experiment) ([]*Outcome, Stats, error) {
	start := time.Now()
	cfg = normalize(cfg)

	var (
		tasks  []task
		byKey  = map[string]int{} // cache key -> index into tasks
		nSlots int
	)
	folds := make([]Fold, len(exps))
	shardCounts := make([]int, len(exps))
	for i, e := range exps {
		n := e.Shards(cfg)
		shardCounts[i] = n
		fold, err := e.Fold(cfg)
		if err != nil {
			return nil, Stats{}, fmt.Errorf("engine: %s fold: %w", e.Name(), err)
		}
		// The wrapper re-establishes shard order when equal cache keys
		// collapse shards of this experiment into tasks that complete
		// out of its shard order (see orderedFold).
		folds[i] = newOrderedFold(fold)
		scopes, locals := shardScopes(e, cfg, n)
		for s := 0; s < n; s++ {
			nSlots++
			k := CacheKey(scopes[s], cfg, locals[s])
			ti, ok := byKey[k]
			if !ok {
				ti = len(tasks)
				byKey[k] = ti
				tasks = append(tasks, task{key: k})
			}
			tasks[ti].dests = append(tasks[ti].dests, slot{exp: i, shard: s})
		}
	}

	// Durable fold: verify any prior manifest's records against the
	// cache (the resume point), then open the journal — atomically
	// rewritten to exactly the verified prefix — for this run's
	// appends. Tasks inside the prefix replay from cache; tasks past it
	// run normally and are journaled as the fold absorbs them. A stale
	// task, whose cached bytes fail their journaled digest, never reads
	// the cache: it is recomputed and its Put replaces the bad bytes.
	var (
		journal  *Journal
		jHashes  []string
		resumed  int
		stale    map[int]bool
		jKept    []ManifestRecord
		manifest = r.Manifests != nil && r.Cache != nil && len(tasks) > 0
	)
	if manifest {
		jHashes = make([]string, len(tasks))
		for i, t := range tasks {
			jHashes[i] = keyHash(t.key)
		}
		id := manifestIdentity(jHashes)
		if m, err := r.Manifests.Load(id); err == nil {
			resumed, stale = verifyResume(m, tasks, jHashes, r.Cache)
			if m != nil {
				jKept = m.Records[:resumed]
			}
		}
		var err error
		switch journal, err = r.Manifests.Start(id, len(tasks), jKept); {
		case errors.Is(err, ErrManifestBusy):
			// An identical run in this process is journaling this fold
			// right now; its journal vouches for the same records ours
			// would, so run un-journaled rather than race it.
			journal, resumed = nil, 0
		case err != nil:
			return nil, Stats{}, fmt.Errorf("engine: manifest: %w", err)
		default:
			defer journal.Close()
		}
	}

	var (
		hits, misses             atomic.Int64
		flightHits, flightShared atomic.Int64
		failed                   atomic.Bool
		errMu                    sync.Mutex
		firstErr                 error
		firstErrAt               = len(tasks)
	)
	fail := func(at int, err error) {
		failed.Store(true)
		errMu.Lock()
		defer errMu.Unlock()
		// Keep the lowest-index error so the reported failure does not
		// depend on pool scheduling.
		if at < firstErrAt {
			firstErrAt, firstErr = at, err
		}
	}

	// Every run executes on a Pool: the shared one when set, otherwise
	// a private one sized by Workers, closed — its workers exited —
	// before the run returns.
	pool := r.Pool
	if pool == nil {
		pool = NewPool(r.Workers)
		defer pool.Close()
	}
	window := reorderWindow(len(tasks), pool.Workers())
	results := make(chan taskResult, window)
	flights := r.flights()

	// runTask resolves one task — cache, single-flight, or compute —
	// and reports its payload to the collector. The collector keeps at
	// most window tasks dispatched and not yet folded, and the results
	// channel holds that many, so the send can never block: a pool
	// worker always finishes a task without parking on the collector.
	runTask := func(ti int) {
		if failed.Load() || ctx.Err() != nil {
			results <- taskResult{ti: ti}
			return
		}
		t := tasks[ti]
		cache := r.Cache
		if stale[ti] {
			cache = nil
		}
		// Any destination computes the same payload; run the first and
		// let the collector fan the bytes out.
		first := t.dests[0]
		e := exps[first.exp]
		if r.taskGate != nil {
			r.taskGate(t.key)
		}
		// Resolve the key: probe the cache, else lead or wait on its
		// flight. A new leader probes once more before computing:
		// between this run's miss and its leadership a previous flight
		// may have landed and left its payload behind, and that second
		// probe is what guarantees each key is computed at most once per
		// process no matter how runs interleave. A waiter whose leader
		// retired probes and contends again.
		var fc *flightCall
		for {
			if cache != nil {
				if b, ok := cache.Get(t.key); ok {
					if fc != nil {
						flightShared.Add(int64(flights.complete(t.key, fc, b, nil)))
					}
					hits.Add(int64(len(t.dests)))
					results <- taskResult{ti: ti, payload: b, cached: true}
					return
				}
			}
			// Compute when there is no flight to join, or when this run
			// leads and its second probe missed.
			if flights == nil || fc != nil {
				break
			}
			c, leader := flights.lead(t.key)
			if leader {
				fc = c
				if r.leadGate != nil {
					r.leadGate(t.key)
				}
				continue
			}
			// Another run is computing this payload right now: take its
			// bytes instead of simulating them again.
			b, err := c.wait(ctx)
			switch {
			case err == nil:
				hits.Add(int64(len(t.dests)))
				flightHits.Add(1)
				results <- taskResult{ti: ti, payload: b, cached: true}
				return
			case ctx.Err() != nil:
				// Our own run is done with this work: withdraw from the
				// flight so the leader's delivery count stays honest,
				// and let the collector drain us.
				flights.abandon(t.key, c)
				results <- taskResult{ti: ti}
				return
			case !errors.Is(err, errFlightRetired):
				fail(ti, fmt.Errorf("engine: %s shard %d (shared in-flight): %w", e.Name(), first.shard, err))
				results <- taskResult{ti: ti}
				return
			}
			// The leader was canceled before computing, so the key is
			// still ours to resolve.
		}
		// A canceled leader must not sit on the key: hand it back so a
		// concurrent run that still wants the payload computes it.
		if fc != nil && ctx.Err() != nil {
			flights.retire(t.key, fc)
			results <- taskResult{ti: ti}
			return
		}
		b, err := e.RunShard(cfg, first.shard)
		if err != nil {
			if fc != nil {
				flights.complete(t.key, fc, nil, err)
			}
			fail(ti, fmt.Errorf("engine: %s shard %d: %w", e.Name(), first.shard, err))
			results <- taskResult{ti: ti}
			return
		}
		misses.Add(1)
		// The extra destinations were supplied without compute: count
		// them as hits so hits+misses always equals the slot total.
		hits.Add(int64(len(t.dests) - 1))
		// Cache before publish: a run that misses the flight must then
		// hit the cache, never recompute.
		if r.Cache != nil {
			r.Cache.Put(t.key, b)
		}
		if fc != nil {
			flightShared.Add(int64(flights.complete(t.key, fc, b, nil)))
		}
		results <- taskResult{ti: ti, payload: b}
	}

	// Dispatch: the collector submits the tasks, one pool unit each, in
	// index order to this run's queue on the pool — the first window of
	// them up front, then one more for each task it folds — so dispatch
	// never runs more than window tasks ahead of the in-order fold. That
	// cap is what bounds the reorder buffer; the pool's round-robin only
	// decides which run a freed worker serves next. Once ctx ends nothing
	// more is submitted, so a canceled tenant's pool queue drains to
	// nothing instead of cycling no-op tasks through the shared workers,
	// and the collector waits only for the tasks it dispatched. wg counts
	// every submitted task, so waiting on it leaves none of this run's
	// work running.
	var wg sync.WaitGroup
	queue := pool.register()
	dispatched := 0
	dispatch := func() {
		if dispatched == len(tasks) || ctx.Err() != nil {
			return
		}
		ti := dispatched
		dispatched++
		wg.Add(1)
		queue.submit(func() {
			defer wg.Done()
			runTask(ti)
		})
	}
	for range window {
		dispatch()
	}

	// Collector: re-establishes task order behind the pool and folds the
	// contiguous prefix. pending holds only out-of-order payloads, and
	// the dispatch bound keeps it no larger than the reorder window.
	// Every dispatched task reports exactly one result, even when it
	// short-circuits.
	pending := make(map[int]taskResult, window)
	contig := 0
	deliver := func(ti int, payload []byte) {
		if failed.Load() || payload == nil {
			return
		}
		for _, d := range tasks[ti].dests {
			if err := folds[d.exp].Absorb(d.shard, payload); err != nil {
				fail(ti, fmt.Errorf("engine: %s shard %d: %w", exps[d.exp].Name(), d.shard, err))
				return
			}
		}
	}
	for received := 0; received < dispatched; received++ {
		res := <-results
		pending[res.ti] = res
		for {
			tr, ok := pending[contig]
			if !ok {
				break
			}
			delete(pending, contig)
			deliver(contig, tr.payload)
			// Journal the fold's progress: one record per absorbed task,
			// in fold order, after the fold holds it. Records inside the
			// resumed prefix are already in the journal. An append
			// failure aborts the run — a fold the journal cannot vouch
			// for is exactly what the manifest exists to prevent — and
			// the journal's intact prefix stays resumable.
			if journal != nil && contig >= resumed && tr.payload != nil && !failed.Load() {
				if err := journal.Append(contig, jHashes[contig], payloadDigest(tr.payload)); err != nil {
					fail(contig, fmt.Errorf("engine: manifest journal: %w", err))
				}
			}
			contig++
			dispatch()
			if r.OnEvent != nil {
				kind := EventShardComputed
				if tr.cached {
					kind = EventShardCached
				}
				first := tasks[contig-1].dests[0]
				r.OnEvent(Event{
					Kind:       kind,
					Experiment: exps[first.exp].Name(),
					Shard:      first.shard,
					Shards:     shardCounts[first.exp],
					Done:       contig,
					Total:      len(tasks),
				})
			}
		}
	}
	wg.Wait()

	stats := Stats{
		Experiments:  len(exps),
		Shards:       nSlots,
		Hits:         int(hits.Load()),
		Misses:       int(misses.Load()),
		Resumed:      resumed,
		FlightHits:   int(flightHits.Load()),
		FlightShared: int(flightShared.Load()),
	}
	if failed.Load() {
		stats.Elapsed = time.Since(start)
		return nil, stats, firstErr
	}
	if err := ctx.Err(); err != nil {
		// Canceled with no earlier shard failure: the fold is abandoned
		// but everything shared survives — payloads already computed are
		// cached, led flights were published or retired, and the journal
		// (closed by its defer) stays resumable at the fold cursor.
		stats.Elapsed = time.Since(start)
		return nil, stats, fmt.Errorf("engine: run canceled: %w", err)
	}

	outcomes := make([]*Outcome, len(exps))
	for i, e := range exps {
		o, err := folds[i].Finish()
		if err != nil {
			stats.Elapsed = time.Since(start)
			return nil, stats, fmt.Errorf("engine: %s merge: %w", e.Name(), err)
		}
		outcomes[i] = o
		if r.OnEvent != nil {
			r.OnEvent(Event{
				Kind:       EventExperimentMerged,
				Experiment: e.Name(),
				Shards:     shardCounts[i],
				Done:       i + 1,
				Total:      len(exps),
			})
		}
	}
	// Every task folded: seal the journal complete. Best-effort — the
	// outcomes above are already correct, and an unsealed journal merely
	// replays from cache on the next identical run.
	if journal != nil {
		journal.Finish()
	}
	stats.Elapsed = time.Since(start)
	return outcomes, stats, nil
}

// verifyResume checks every record of a manifest against the cache. It
// returns the length of the prefix the cache can still vouch for:
// records contiguous from zero that name the key hashes the current
// task list derives (same canonical order) and hash to payload bytes
// the cache holds. It also returns the stale tasks, each one whose
// record names its key hash but whose cached bytes hash to another
// digest. Past the prefix a task runs normally, so an evicted payload
// or one behind a torn journal tail is computed; a stale task must
// also skip the cache, or it would fold the corrupted bytes.
func verifyResume(m *Manifest, tasks []task, hashes []string, cache Cache) (n int, stale map[int]bool) {
	if m == nil || m.Tasks != len(tasks) {
		return 0, nil
	}
	prefix := true
	for i, rec := range m.Records {
		if i >= len(tasks) || rec.KeyHash != hashes[i] {
			prefix = false
			continue
		}
		b, ok := cache.Get(tasks[i].key)
		switch {
		case ok && payloadDigest(b) != rec.Digest:
			if stale == nil {
				stale = map[int]bool{}
			}
			stale[i] = true
			prefix = false
		case !ok:
			prefix = false
		case prefix:
			n = i + 1
		}
	}
	return n, stale
}

// RunNames resolves names against the Default registry and runs them.
func (r *Runner) RunNames(cfg core.Config, names string) ([]*Outcome, Stats, error) {
	exps, err := Default.Select(names)
	if err != nil {
		return nil, Stats{}, err
	}
	return r.Run(cfg, exps)
}
