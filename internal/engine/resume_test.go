package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"vmdg/internal/core"
	"vmdg/internal/grid"
)

// This file is the adversarial half of the durable-fold subsystem: the
// fault plans from faultfs.go kill the journal mid-fold — clean error,
// simulated process death, torn record, full disk — and every test's
// acceptance bar is the same: the resumed run's table, CSV, and JSON
// must be byte-identical to an uninterrupted run, with only the missing
// shards re-simulated.

// journalWrites matches the journal's record appends (the manifest
// file's OpWrite stream: op 1 is the Start header, op 1+k is record k).
func journalWrites(op Op, path string) bool {
	return op == OpWrite && filepath.Ext(path) == manifestExt
}

// durableRunner builds a Runner whose cache and manifest store live
// under dir, with an optional fault plan on the store.
func durableRunner(t *testing.T, dir string, workers int, f *Faults) *Runner {
	t.Helper()
	fc, err := NewFileCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	fc.Manifests().SetFaults(f)
	return &Runner{Workers: workers, Cache: fc, Manifests: fc.Manifests()}
}

// runOnce runs one experiment build on a fresh runner.
func runOnce(t *testing.T, r *Runner, cfg core.Config, build func() Experiment) ([]*Outcome, Stats, error) {
	t.Helper()
	return r.Run(cfg, []Experiment{build()})
}

// TestResumeKillProperty is the acceptance property loop: for seeded
// random sweep specs, crash the fold at a random task via the fault
// hook (simulated process death: every persistence op after the Nth
// journal append fails), resume with a clean runner over the same
// cache, and require
//
//   - output bytes (table, CSV, JSON) identical to an uninterrupted run,
//   - crash misses + resume misses == total tasks (no shard simulated
//     twice, none skipped),
//   - resume hits == everything the crashed run computed,
//   - Stats.Resumed == the journal's cursor at the kill.
//
// The loop runs at worker counts 1, 4, and 8, so resume interacts with
// the reorder window and the dispatch that follows the fold at every
// pool shape.
func TestResumeKillProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	policies := grid.Policies()
	for i, workers := range []int{1, 4, 8} {
		spec := grid.Spec{
			Version:  grid.SpecVersion,
			Seed:     uint64(100 + i),
			Quick:    true,
			Envs:     []string{"vmplayer", "qemu"},
			Machines: []int{40 + rng.Intn(150), 200 + rng.Intn(150)},
			Minutes:  []int{20 + rng.Intn(30)},
			Churn:    []bool{rng.Intn(2) == 0},
			Policy:   []string{policies[rng.Intn(len(policies))], "fifo"}[:1+rng.Intn(2)],
		}
		label := fmt.Sprintf("workers=%d spec=%+v", workers, spec)
		cfg := core.Config{Seed: spec.Seed, Quick: true}
		build := func() Experiment {
			exp, err := NewSweep("sweep", "resume property", spec)
			if err != nil {
				t.Fatal(err)
			}
			return exp
		}

		// Uninterrupted reference, in its own cache universe.
		base, baseStats, err := runOnce(t, durableRunner(t, t.TempDir(), workers, nil), cfg, build)
		if err != nil {
			t.Fatalf("%s: baseline: %v", label, err)
		}
		tasks := baseStats.Misses
		if tasks < 2 {
			t.Fatalf("%s: degenerate spec: %d tasks", label, tasks)
		}

		// Crash at a random task: the fault fires on journal append
		// killAt (record killAt-2, 0-based — op 1 is the header), and
		// Crash makes every later persistence op fail too.
		killAt := 2 + rng.Intn(tasks-1) // fail one of records 0..tasks-2
		dir := t.TempDir()
		faults := &Faults{FailAt: killAt, Match: journalWrites, Crash: true}
		_, crashStats, err := runOnce(t, durableRunner(t, dir, workers, faults), cfg, build)
		if err == nil {
			t.Fatalf("%s: crashed run succeeded", label)
		}
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("%s: crash surfaced %v, want injected fault", label, err)
		}
		folded := killAt - 2 // records journaled before the kill

		// Resume: clean runner, same cache directory.
		resumed, resStats, err := runOnce(t, durableRunner(t, dir, workers, nil), cfg, build)
		if err != nil {
			t.Fatalf("%s: resume: %v", label, err)
		}
		if resumed[0].Render() != base[0].Render() || resumed[0].CSV() != base[0].CSV() ||
			!bytes.Equal(resumed[0].Raw, base[0].Raw) {
			t.Fatalf("%s: resumed output differs from uninterrupted run", label)
		}
		if resStats.Resumed != folded {
			t.Errorf("%s: resumed %d tasks, journal held %d", label, resStats.Resumed, folded)
		}
		if crashStats.Misses+resStats.Misses != tasks {
			t.Errorf("%s: %d + %d shards simulated across crash+resume, want exactly %d",
				label, crashStats.Misses, resStats.Misses, tasks)
		}
		if resStats.Hits != crashStats.Misses {
			t.Errorf("%s: resume replayed %d from cache, crashed run computed %d",
				label, resStats.Hits, crashStats.Misses)
		}

		// The resumed run completed, so its manifest must be sealed.
		fc, _ := NewFileCache(dir)
		st, err := fc.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Manifests != 1 || st.Resumable != 0 {
			t.Errorf("%s: after resume: %d manifests, %d resumable, want 1/0", label, st.Manifests, st.Resumable)
		}
	}
}

// TestResumeTornFinalRecord crashes mid-write, leaving a literally torn
// record at the journal tail; the loader must fall back to the last
// intact record and the resume must still replay to identical bytes.
func TestResumeTornFinalRecord(t *testing.T) {
	fake := func() Experiment { return newFake("tornfake", 9) }
	cfg := quickCfg()

	base, baseStats, err := runOnce(t, durableRunner(t, t.TempDir(), 3, nil), cfg, fake)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	faults := &Faults{FailAt: 6, Match: journalWrites, TornBytes: 20, Crash: true}
	if _, _, err := runOnce(t, durableRunner(t, dir, 3, faults), cfg, fake); err == nil {
		t.Fatal("torn-write run succeeded")
	}
	// The file must actually hold a torn tail: record 4's first 20
	// bytes, no newline. Load salvages records 0..3.
	fc, _ := NewFileCache(dir)
	mis, err := fc.Manifests().List()
	if err != nil || len(mis) != 1 {
		t.Fatalf("manifests after torn crash: %v, %v", mis, err)
	}
	if !mis[0].Torn || mis[0].Cursor != 4 {
		t.Fatalf("torn journal listed as %+v, want torn with cursor 4", mis[0])
	}

	resumed, resStats, err := runOnce(t, durableRunner(t, dir, 3, nil), cfg, fake)
	if err != nil {
		t.Fatal(err)
	}
	if resumed[0].Render() != base[0].Render() {
		t.Fatal("resumed output differs after torn record")
	}
	if resStats.Resumed != 4 {
		t.Errorf("resumed %d tasks, want the 4 intact records", resStats.Resumed)
	}
	if resStats.Misses+resStats.Hits != baseStats.Misses+baseStats.Hits {
		t.Errorf("slot accounting drifted: %+v vs baseline %+v", resStats, baseStats)
	}
}

// TestResumeENOSPC fails one journal append with ENOSPC (no crash
// cascade): the run must abort with the real error — a fold the
// journal cannot vouch for is worse than a dead run — and a later
// resume must complete byte-identically.
func TestResumeENOSPC(t *testing.T) {
	fake := func() Experiment { return newFake("nospacefake", 7) }
	cfg := quickCfg()

	base, _, err := runOnce(t, durableRunner(t, t.TempDir(), 2, nil), cfg, fake)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	faults := &Faults{FailAt: 4, Match: journalWrites, Err: fmt.Errorf("write: %w", syscall.ENOSPC)}
	_, _, err = runOnce(t, durableRunner(t, dir, 2, faults), cfg, fake)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("run error %v, want ENOSPC", err)
	}

	resumed, resStats, err := runOnce(t, durableRunner(t, dir, 2, nil), cfg, fake)
	if err != nil {
		t.Fatal(err)
	}
	if resumed[0].Render() != base[0].Render() {
		t.Fatal("resumed output differs after ENOSPC")
	}
	if resStats.Resumed == 0 {
		t.Error("nothing resumed from the pre-ENOSPC journal prefix")
	}
}

// TestResumeAfterPayloadEviction prunes one payload out from under a
// complete manifest: the cursor truncates to the gap, and the re-run
// re-simulates exactly the evicted shard — everything else replays.
func TestResumeAfterPayloadEviction(t *testing.T) {
	fake := func() Experiment { return newFake("evictfake", 8) }
	cfg := quickCfg()
	dir := t.TempDir()

	base, _, err := runOnce(t, durableRunner(t, dir, 3, nil), cfg, fake)
	if err != nil {
		t.Fatal(err)
	}

	// Evict shard 2's payload and let Prune reconcile the journal.
	fc, _ := NewFileCache(dir)
	key := CacheKey("evictfake", cfg, 2)
	if err := os.Remove(filepath.Join(dir, keyHash(key)+".json")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fc.Prune(0, 0); err != nil {
		t.Fatal(err)
	}

	resumed, resStats, err := runOnce(t, durableRunner(t, dir, 3, nil), cfg, fake)
	if err != nil {
		t.Fatal(err)
	}
	if resumed[0].Render() != base[0].Render() {
		t.Fatal("output differs after payload eviction")
	}
	if resStats.Resumed != 2 {
		t.Errorf("resumed %d tasks, want 2 (the prefix before the evicted payload)", resStats.Resumed)
	}
	if resStats.Misses != 1 {
		t.Errorf("re-simulated %d shards, want exactly the evicted one", resStats.Misses)
	}
}

// TestResumeRecomputesCorruptedPayloads overwrites two journaled
// payloads with valid JSON that fails their digests, one at the end of
// the verified prefix and one past it. The re-run must recompute both
// instead of folding the cached bytes, and its Puts must repair the
// cache, so a third run replays everything.
func TestResumeRecomputesCorruptedPayloads(t *testing.T) {
	fake := func() Experiment { return newFake("stalefake", 6) }
	cfg := quickCfg()
	dir := t.TempDir()

	base, _, err := runOnce(t, durableRunner(t, dir, 2, nil), cfg, fake)
	if err != nil {
		t.Fatal(err)
	}
	for _, shard := range []int{3, 5} {
		path := filepath.Join(dir, keyHash(CacheKey("stalefake", cfg, shard))+".json")
		if err := os.WriteFile(path, []byte(`{"v":1000}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	exp := newFake("stalefake", 6)
	out, stats, err := durableRunner(t, dir, 2, nil).Run(cfg, []Experiment{exp})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Render() != base[0].Render() {
		t.Fatalf("folded corrupted payloads:\n%s\nwant\n%s", out[0].Render(), base[0].Render())
	}
	if stats.Misses != 2 || exp.runs.Load() != 2 || stats.Resumed != 3 {
		t.Errorf("re-run: %d misses, %d shard runs, %d resumed; want 2, 2 and the 3 verified records",
			stats.Misses, exp.runs.Load(), stats.Resumed)
	}

	out, stats, err = runOnce(t, durableRunner(t, dir, 2, nil), cfg, fake)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Render() != base[0].Render() || stats.Misses != 0 || stats.Resumed != 6 {
		t.Errorf("after repair: %d misses, %d resumed, want 0 and 6; output\n%s", stats.Misses, stats.Resumed, out[0].Render())
	}
}

// TestResumeIdentityMismatch: a different spec (or seed) derives a
// different manifest identity, so nothing resumes across runs that are
// not byte-equivalent — and both manifests coexist in the store.
func TestResumeIdentityMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := quickCfg()
	if _, _, err := runOnce(t, durableRunner(t, dir, 2, nil), cfg, func() Experiment { return newFake("ida", 5) }); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed = 999
	_, stats, err := runOnce(t, durableRunner(t, dir, 2, nil), other, func() Experiment { return newFake("ida", 5) })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != 0 || stats.Misses != 5 {
		t.Errorf("different seed resumed: %+v", stats)
	}
	fc, _ := NewFileCache(dir)
	if st, _ := fc.Stats(); st.Manifests != 2 {
		t.Errorf("%d manifests, want one per identity", st.Manifests)
	}
}

// TestRunnerWithoutManifestsUnchanged: no store, no journaling — the
// cache directory stays free of manifests and stats report no resume.
func TestRunnerWithoutManifestsUnchanged(t *testing.T) {
	dir := t.TempDir()
	fc, err := NewFileCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Workers: 2, Cache: fc}
	_, stats, err := r.Run(quickCfg(), []Experiment{newFake("plain", 4)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != 0 {
		t.Errorf("resumed %d without a manifest store", stats.Resumed)
	}
	if st, _ := fc.Stats(); st.Manifests != 0 {
		t.Errorf("manifests written without a store: %+v", st)
	}
}
