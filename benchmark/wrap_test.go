package main

import (
	"slices"
	"sync"
	"testing"

	"vmdg/internal/core"
	"vmdg/internal/engine"
	"vmdg/internal/grid"
)

// keyLog records every key the runner stores under.
type keyLog struct {
	engine.Cache
	mu   sync.Mutex
	keys []string
}

func (k *keyLog) Put(key string, payload []byte) {
	k.mu.Lock()
	k.keys = append(k.keys, key)
	k.mu.Unlock()
	k.Cache.Put(key, payload)
}

// TestTracingWrappersAreTransparent runs a figure, a fleet and a sweep
// with and without the tracing wrappers: the outcomes must be byte-
// identical, the engine stats equal, and the cache keys the same — the
// wrappers forward ShardScoper and Folder, so the runner keys and folds
// the wrapped experiments exactly as the originals.
func TestTracingWrappersAreTransparent(t *testing.T) {
	fig, ok := engine.Default.Lookup("fig1")
	if !ok {
		t.Fatal("fig1 not registered")
	}
	sp := grid.Spec{Version: grid.SpecVersion, Envs: []string{"vmplayer"},
		Machines: []int{300, 600}, Minutes: []int{10}, Churn: []bool{true}, Policy: []string{"fifo", "deadline"}}
	sweep, err := engine.NewSweep("sweep", "wrapper equivalence sweep", sp)
	if err != nil {
		t.Fatal(err)
	}
	fleet := engine.FleetScenario("fleet", "wrapper equivalence fleet", grid.Scenario{
		Machines: 700, Minutes: 20, Churn: true, Policy: "replication", FaultyFrac: 0.02,
		Migration: "on-departure", BandwidthMbps: 100, Envs: []string{"vmplayer", "qemu"}})
	cfg := core.Config{Seed: 3, Reps: 1, Quick: true}

	for _, e := range []engine.Experiment{fig, fleet, sweep} {
		t.Run(e.Name(), func(t *testing.T) {
			tr := newTracer()
			w := traceExperiment(e, tr)
			for _, iface := range []struct {
				name         string
				orig, traced bool
			}{
				{"ShardScoper", isScoper(e), isScoper(w)},
				{"Folder", isFolder(e), isFolder(w)},
			} {
				if iface.orig != iface.traced {
					t.Fatalf("%s: wrapper implements %s = %v, original = %v", e.Name(), iface.name, iface.traced, iface.orig)
				}
			}

			plainLog := &keyLog{Cache: engine.NewMemCache()}
			plain := &engine.Runner{Workers: workers, Cache: plainLog}
			po, ps, err := plain.Run(cfg, []engine.Experiment{e})
			if err != nil {
				t.Fatal(err)
			}
			tracedLog := &keyLog{Cache: engine.NewMemCache()}
			traced := &engine.Runner{Workers: workers, Cache: tracedCache{Cache: tracedLog, tr: tr}}
			to, ts, err := traced.Run(cfg, []engine.Experiment{w})
			if err != nil {
				t.Fatal(err)
			}

			if po[0].Render() != to[0].Render() || po[0].CSV() != to[0].CSV() || string(po[0].Raw) != string(to[0].Raw) {
				t.Error("traced outcome differs from the untraced one")
			}
			ps.Elapsed, ts.Elapsed = 0, 0
			if ps != ts {
				t.Errorf("engine stats differ: untraced %+v, traced %+v", ps, ts)
			}
			slices.Sort(plainLog.keys)
			slices.Sort(tracedLog.keys)
			if !slices.Equal(plainLog.keys, tracedLog.keys) {
				t.Errorf("cache keys differ:\nuntraced %q\ntraced   %q", plainLog.keys, tracedLog.keys)
			}

			computed := 0
			for _, s := range tr.snapshot() {
				if s.Name == "engine.compute" {
					computed++
				}
			}
			if computed != ts.Misses {
				t.Errorf("%d compute spans for %d computed shards", computed, ts.Misses)
			}
		})
	}
}

func isScoper(e engine.Experiment) bool { _, ok := e.(engine.ShardScoper); return ok }
func isFolder(e engine.Experiment) bool { _, ok := e.(engine.Folder); return ok }
