package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
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

// TestSlowCursorTaskDoesNotIdlePool: while one worker holds the task
// at the fold cursor, the other worker must be able to run every other
// task of a paper-pass-sized run (59 tasks at two workers). Task 0 waits
// until the other 58 have started; a window that stops dispatch short
// of them leaves the second worker idle, and the wait times out.
func TestSlowCursorTaskDoesNotIdlePool(t *testing.T) {
	const tasks = 59
	fake := newFake("slowcursor", tasks)
	cfg := quickCfg()
	cursor := CacheKey(fake.Scope(), cfg, 0)
	var others atomic.Int64
	allStarted := make(chan struct{})
	var startedBeforeDeadline atomic.Int64
	startedBeforeDeadline.Store(-1)
	r := Runner{Workers: 2, taskGate: func(key string) {
		if key != cursor {
			if others.Add(1) == tasks-1 {
				close(allStarted)
			}
			return
		}
		select {
		case <-allStarted:
		case <-time.After(3 * time.Second):
			startedBeforeDeadline.Store(others.Load())
		}
	}}
	if _, _, err := r.Run(cfg, []Experiment{fake}); err != nil {
		t.Fatal(err)
	}
	if n := startedBeforeDeadline.Load(); n >= 0 {
		t.Fatalf("only %d of %d other tasks could start while task 0 held the fold cursor", n, tasks-1)
	}
}

// windowExp is a fakeExp whose every RunShard checks the dispatch bound
// against the fold: shard must be below absorbed + window, where
// absorbed counts the payloads its fold has absorbed. Absorb runs
// before the collector dispatches the next task, so absorbed never lags
// the fold cursor that dispatch follows.
type windowExp struct {
	*fakeExp
	window     int
	absorbed   atomic.Int64
	violations atomic.Int64
}

func (w *windowExp) RunShard(cfg core.Config, shard int) ([]byte, error) {
	if int64(shard) >= w.absorbed.Load()+int64(w.window) {
		w.violations.Add(1)
	}
	return w.fakeExp.RunShard(cfg, shard)
}

func (w *windowExp) Fold(cfg core.Config) (Fold, error) {
	inner, err := w.fakeExp.Fold(cfg)
	return &countingFold{Fold: inner, absorbed: &w.absorbed}, err
}

// countingFold counts the payloads its fold has absorbed.
type countingFold struct {
	Fold
	absorbed *atomic.Int64
}

func (c *countingFold) Absorb(shard int, payload []byte) error {
	err := c.Fold.Absorb(shard, payload)
	c.absorbed.Add(1)
	return err
}

// TestReorderWindowBounds pins the other side of the window: in a run
// with more tasks than the window, no task starts window or more tasks
// ahead of the fold, for any worker count. The window itself is
// min(tasks, 32·workers): at least one task for any non-empty run, and
// never more than the run has tasks.
func TestReorderWindowBounds(t *testing.T) {
	for workers := 1; workers <= 16; workers++ {
		for tasks := 1; tasks <= 600; tasks += 7 {
			w := reorderWindow(tasks, workers)
			if w != min(tasks, 32*workers) || w < 1 {
				t.Fatalf("reorderWindow(%d, %d) = %d, want min(tasks, 32·workers) = %d",
					tasks, workers, w, min(tasks, 32*workers))
			}
		}
	}
	const tasks = 300
	for _, workers := range []int{1, 2, 8} {
		exp := &windowExp{fakeExp: newFake("window", tasks), window: reorderWindow(tasks, workers)}
		if exp.window >= tasks {
			t.Fatalf("workers=%d: window %d covers all %d tasks; the run cannot test the bound", workers, exp.window, tasks)
		}
		r := Runner{Workers: workers}
		if _, _, err := r.Run(quickCfg(), []Experiment{exp}); err != nil {
			t.Fatal(err)
		}
		if v := exp.violations.Load(); v != 0 {
			t.Errorf("workers=%d: %d tasks started %d or more tasks ahead of the fold", workers, v, exp.window)
		}
		if got := exp.absorbed.Load(); got != tasks {
			t.Errorf("workers=%d: fold absorbed %d of %d payloads", workers, got, tasks)
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
