package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vmdg/internal/core"
)

// TestStreamingFoldMatchesBatchMerge runs the same experiment through
// the runner's streaming fold and through Merge over serially computed
// payloads, and requires identical outcomes for any worker count.
func TestStreamingFoldMatchesBatchMerge(t *testing.T) {
	const shards = 100
	fake := newFake("streamfake", shards)
	payloads := make([][]byte, shards)
	for s := range payloads {
		b, err := fake.RunShard(quickCfg(), s)
		if err != nil {
			t.Fatal(err)
		}
		payloads[s] = b
	}
	want, err := fake.Merge(quickCfg(), payloads)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		r := Runner{Workers: workers}
		got, stats, err := r.Run(quickCfg(), []Experiment{fake})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Shards != shards {
			t.Fatalf("workers=%d: %d shards, want %d", workers, stats.Shards, shards)
		}
		if got[0].Render() != want.Render() {
			t.Fatalf("workers=%d: streaming outcome differs from batch:\n%s\nvs\n%s",
				workers, got[0].Render(), want.Render())
		}
	}
}

// garbledExp is a fakeExp whose shard 3 payload is not JSON, so its
// fold's Absorb fails on it.
type garbledExp struct{ *fakeExp }

func (g garbledExp) RunShard(cfg core.Config, shard int) ([]byte, error) {
	if shard == 3 {
		return []byte("not json"), nil
	}
	return g.fakeExp.RunShard(cfg, shard)
}

// TestStreamingFoldError verifies an absorb failure surfaces like a
// shard failure — naming the experiment and shard — and aborts the run.
func TestStreamingFoldError(t *testing.T) {
	bad := garbledExp{newFake("badfold", 5)}
	r := Runner{Workers: 2}
	_, _, err := r.Run(quickCfg(), []Experiment{bad})
	if err == nil || !strings.HasPrefix(err.Error(), "engine: badfold shard 3: ") {
		t.Fatalf("absorb failure surfaced as %v, want an engine: badfold shard 3 error", err)
	}
}

// TestEventsOrdered pins the OnEvent contract: exactly one shard event
// per task, in task order, from the collector, followed by one merge
// event per experiment — for any worker count.
func TestEventsOrdered(t *testing.T) {
	for _, workers := range []int{1, 4} {
		fake := newFake("donefake", 23)
		var events []Event
		r := Runner{
			Workers: workers,
			OnEvent: func(ev Event) { events = append(events, ev) },
		}
		if _, _, err := r.Run(quickCfg(), []Experiment{fake}); err != nil {
			t.Fatal(err)
		}
		if len(events) != 24 {
			t.Fatalf("workers=%d: %d events, want 23 shard + 1 merge", workers, len(events))
		}
		for i, ev := range events[:23] {
			if ev.Kind != EventShardComputed {
				t.Fatalf("workers=%d: event %d kind %d, want computed", workers, i, ev.Kind)
			}
			if ev.Done != i+1 || ev.Total != 23 {
				t.Fatalf("workers=%d: event %d progress %d/%d not in task order", workers, i, ev.Done, ev.Total)
			}
			if ev.Experiment != "donefake" || ev.Shards != 23 {
				t.Fatalf("workers=%d: event %d misattributed: %+v", workers, i, ev)
			}
		}
		last := events[23]
		if last.Kind != EventExperimentMerged || last.Experiment != "donefake" || last.Done != 1 || last.Total != 1 {
			t.Fatalf("workers=%d: final event %+v, want a merge event", workers, last)
		}
	}
}

// TestEventsReportCacheHits checks a warm run emits cached-shard
// events.
func TestEventsReportCacheHits(t *testing.T) {
	fake := newFake("cachedfake", 5)
	cache := NewMemCache()
	r := Runner{Workers: 2, Cache: cache}
	if _, _, err := r.Run(quickCfg(), []Experiment{fake}); err != nil {
		t.Fatal(err)
	}
	cachedEvents := 0
	r.OnEvent = func(ev Event) {
		if ev.Kind == EventShardCached {
			cachedEvents++
		}
	}
	if _, _, err := r.Run(quickCfg(), []Experiment{fake}); err != nil {
		t.Fatal(err)
	}
	if cachedEvents != 5 {
		t.Fatalf("warm run emitted %d cached events, want 5", cachedEvents)
	}
}

// TestReorderWindowBounds sanity-checks the dispatch window floor and
// its growth with the span chunk: the window must always cover two
// full spans per worker, or the feeder would stall the pool waiting on
// permits the collector cannot return.
func TestReorderWindowBounds(t *testing.T) {
	if w := reorderWindow(1, 1); w != 16 {
		t.Errorf("reorderWindow(1, 1) = %d, want the floor 16", w)
	}
	if w := reorderWindow(8, 1); w != 32 {
		t.Errorf("reorderWindow(8, 1) = %d, want 32", w)
	}
	if w := reorderWindow(8, 8); w != 128 {
		t.Errorf("reorderWindow(8, 8) = %d, want 2 spans per worker = 128", w)
	}
	for workers := 1; workers <= 16; workers++ {
		for tasks := 1; tasks <= 600; tasks += 7 {
			chunk := spanChunk(tasks, workers)
			if chunk < 1 || chunk > 8 {
				t.Fatalf("spanChunk(%d, %d) = %d outside [1, 8]", tasks, workers, chunk)
			}
			if w := reorderWindow(workers, chunk); w < 2*chunk*workers {
				t.Fatalf("reorderWindow(%d, %d) = %d below two spans per worker", workers, chunk, w)
			}
		}
	}
}

func TestFileCachePrune(t *testing.T) {
	dir := t.TempDir()
	fc, err := NewFileCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		fc.Put(fmt.Sprintf("key-%d", i), make([]byte, 100))
	}
	// Age two entries far past any cutoff.
	old := time.Now().Add(-48 * time.Hour)
	aged := 0
	entries, err := fc.entries()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if aged < 2 {
			if err := os.Chtimes(e.path, old, old); err != nil {
				t.Fatal(err)
			}
			aged++
		}
	}

	st, err := fc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 5 || st.Bytes != 500 {
		t.Fatalf("stats = %+v, want 5 entries of 500 bytes", st)
	}

	removed, freed, err := fc.Prune(24*time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 || freed != 200 {
		t.Fatalf("age prune removed %d (%d bytes), want the 2 aged entries", removed, freed)
	}

	removed, _, err = fc.Prune(0, 250)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("size prune removed %d, want 1 (300 bytes down to <=250)", removed)
	}

	removed, _, err = fc.Clear()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("clear removed %d, want the remaining 2", removed)
	}
	st, _ = fc.Stats()
	if st.Entries != 0 {
		t.Fatalf("cache not empty after clear: %+v", st)
	}
	// Non-payload files are left alone.
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fc.Clear(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "README")); err != nil {
		t.Fatal("clear removed a non-cache file")
	}
}
