package engine

import (
	"sync"
	"testing"

	"vmdg/internal/grid"
)

// arrivalGate is the deterministic interleaving pin for the tests
// below: wait(key) blocks until n callers have arrived at key, then
// releases them all. Hooked into the runner's taskGate it guarantees
// every participating run reaches a task before any of them can lead
// its flight — the overlap the single-flight group exists for, forced
// on every key instead of left to scheduling luck.
type arrivalGate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived map[string]int
}

func newArrivalGate(n int) *arrivalGate {
	g := &arrivalGate{n: n, arrived: map[string]int{}}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *arrivalGate) wait(key string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.arrived[key]++
	if g.arrived[key] >= g.n {
		g.cond.Broadcast()
		return
	}
	for g.arrived[key] < g.n {
		g.cond.Wait()
	}
}

// TestConcurrentIdenticalRunsSingleFlight is the PR's acceptance test:
// eight identical cold sweeps through one shared cache and flight
// group cost one sweep's simulation work. The gates pin the worst-case
// interleaving — all eight runs reach every task before any leads — so
// the counts below are exact invariants, not timing-dependent bounds:
// each of the 12 keys is computed exactly once (one leader), and the
// other seven runs each take it as a flight hit.
func TestConcurrentIdenticalRunsSingleFlight(t *testing.T) {
	const (
		runs   = 8
		shards = 12
	)
	fake := newFake("flightfake", shards)
	cache := NewMemCache()
	flights := NewFlightGroup()
	gate := newArrivalGate(runs)
	cfg := quickCfg()

	// Serial reference for byte-identity, on its own cache.
	serial := Runner{Workers: 1, Cache: NewMemCache()}
	ref, _, err := serial.Run(cfg, []Experiment{fake})
	if err != nil {
		t.Fatal(err)
	}
	refRuns := fake.runs.Load()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		stats    []Stats
		failures []error
		renders  []string
	)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := Runner{
				Workers:     2,
				Cache:       cache,
				flightGroup: flights,
				taskGate:    gate.wait,
				leadGate:    func(key string) { awaitWaiters(flights, key, runs-1) },
			}
			out, st, err := r.Run(cfg, []Experiment{fake})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failures = append(failures, err)
				return
			}
			stats = append(stats, st)
			renders = append(renders, out[0].Render())
		}()
	}
	wg.Wait()
	for _, err := range failures {
		t.Fatal(err)
	}

	var hits, misses, flightHits, flightShared int
	for _, st := range stats {
		hits += st.Hits
		misses += st.Misses
		flightHits += st.FlightHits
		flightShared += st.FlightShared
	}
	// Exactly one compute per unique key across the whole process.
	if misses != shards {
		t.Errorf("Σmisses = %d across %d runs, want %d (one compute per key)", misses, runs, shards)
	}
	if got := fake.runs.Load() - refRuns; got != shards {
		t.Errorf("RunShard executed %d times across %d concurrent runs, want %d", got, runs, shards)
	}
	// Every other run took every key from the leader's flight: the
	// issue's bar is ≥ (runs-1) × shards; the gates make it exact.
	if want := (runs - 1) * shards; flightHits != want {
		t.Errorf("ΣFlightHits = %d, want %d", flightHits, want)
	}
	if want := (runs - 1) * shards; flightShared != want {
		t.Errorf("ΣFlightShared = %d, want %d", flightShared, want)
	}
	if hits+misses != runs*shards {
		t.Errorf("hits(%d)+misses(%d) != %d slots", hits, misses, runs*shards)
	}
	for i, r := range renders {
		if r != ref[0].Render() {
			t.Fatalf("concurrent run %d rendered differently from the serial reference", i)
		}
	}
}

// overlapSpecs builds the two sweeps the shared-pool test overlaps:
// both sweep machines {300, 700} (1 and 2 population shards), A over
// policies {fifo, deadline}, B over {deadline, replication}. The
// deadline points are the shared work: 3 cache keys in both key sets.
func overlapSpecs() (a, b grid.Spec) {
	base := grid.Spec{
		Version:  1,
		Envs:     []string{"vmplayer"},
		Machines: []int{300, 700},
		Minutes:  []int{60},
	}
	a, b = base, base
	a.Name, a.Policy = "sweepA", []string{"fifo", "deadline"}
	b.Name, b.Policy = "sweepB", []string{"deadline", "replication"}
	return a, b
}

// sweepKeys resolves the exact cache keys a sweep's tasks will use, in
// task order — the in-package ground truth the test pins its shared-key
// expectations to.
func sweepKeys(t *testing.T, exp Experiment, keys map[string]int) []string {
	t.Helper()
	cfg := normalize(quickCfg())
	n := exp.Shards(cfg)
	scopes, locals := shardScopes(exp, cfg, n)
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = CacheKey(scopes[i], cfg, locals[i])
		keys[out[i]]++
	}
	return out
}

// TestConcurrentOverlappingSweepsSharedPool drives two different but
// overlapping sweeps through one shared Pool under the race detector.
// "gated pair" runs A and B over a MemCache, with gates that bring both
// runs to every shared key before either leads: the three shared
// shards are computed once and flight-delivered to the other run, the
// six non-shared shards are ordinary cold misses. "ungated trio" runs
// A, B, A over a FileCache with its memory tier and no gates, so the
// flight counts depend on timing, yet every interleaving computes only
// the unique-key union. In both cases every run's table, CSV, and JSON
// artifacts are byte-identical to a serial run of the same spec.
func TestConcurrentOverlappingSweepsSharedPool(t *testing.T) {
	specA, specB := overlapSpecs()
	expA, err := NewSweep("sweepA", "overlap A", specA)
	if err != nil {
		t.Fatal(err)
	}
	expB, err := NewSweep("sweepB", "overlap B", specB)
	if err != nil {
		t.Fatal(err)
	}

	counts := map[string]int{}
	sweepKeys(t, expA, counts)
	sweepKeys(t, expB, counts)
	shared := map[string]bool{}
	for k, n := range counts {
		if n > 1 {
			shared[k] = true
		}
	}
	if len(shared) != 3 || len(counts) != 9 {
		t.Fatalf("test geometry drifted: %d shared keys over %d unique, want 3 over 9", len(shared), len(counts))
	}

	fc, err := NewFileCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fc.EnableMemTier(DefaultMemTierBytes)
	cfg := quickCfg()
	for _, tc := range []struct {
		name  string
		exps  []Experiment
		cache Cache
		gated bool
	}{
		{"gated pair", []Experiment{expA, expB}, NewMemCache(), true},
		{"ungated trio", []Experiment{expA, expB, expA}, fc, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := NewPool(8)
			defer pool.Close()
			gate := newArrivalGate(len(tc.exps))
			outs := make([]*Outcome, len(tc.exps))
			stats := make([]Stats, len(tc.exps))
			errs := make([]error, len(tc.exps))
			var wg sync.WaitGroup
			for i, exp := range tc.exps {
				r := Runner{Pool: pool, Cache: tc.cache}
				if tc.gated {
					r.taskGate = func(key string) {
						if shared[key] {
							gate.wait(key)
						}
					}
					r.leadGate = func(key string) {
						if shared[key] {
							awaitWaiters(pool.Flights(), key, 1)
						}
					}
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					var out []*Outcome
					if out, stats[i], errs[i] = r.Run(cfg, []Experiment{exp}); errs[i] == nil {
						outs[i] = out[0]
					}
				}()
			}
			wg.Wait()

			// Work accounting: the union computes once, and every flight
			// hit is one delivery from a leader.
			var misses, flightHits, flightShared int
			for i, st := range stats {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				misses += st.Misses
				flightHits += st.FlightHits
				flightShared += st.FlightShared
			}
			if misses != len(counts) {
				t.Errorf("Σmisses = %d, want %d (the unique-key union)", misses, len(counts))
			}
			if flightHits != flightShared {
				t.Errorf("ΣFlightHits = %d != ΣFlightShared = %d", flightHits, flightShared)
			}
			if tc.gated && flightHits != len(shared) {
				t.Errorf("ΣFlightHits = %d, want %d (one per shared shard)", flightHits, len(shared))
			}

			// Byte-identity against serial runs on fresh caches, no pool.
			for i, got := range outs {
				ref, _, err := (&Runner{Workers: 1, Cache: NewMemCache()}).Run(cfg, []Experiment{tc.exps[i]})
				if err != nil {
					t.Fatal(err)
				}
				if got.Render() != ref[0].Render() || got.CSV() != ref[0].CSV() || string(got.Raw) != string(ref[0].Raw) {
					t.Errorf("run %d (%s): concurrent table, CSV or JSON differs from serial", i, tc.exps[i].Name())
				}
			}
		})
	}
}
