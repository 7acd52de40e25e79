package engine

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"vmdg/internal/core"
)

// quickCfg mirrors the core test configuration: trimmed workloads, two
// repetitions.
func quickCfg() core.Config { return core.Config{Seed: 1, Reps: 2, Quick: true} }

// fakeExp is a synthetic experiment for exercising runner mechanics:
// deterministic payloads, an execution counter, and an optional failing
// shard.
type fakeExp struct {
	name   string
	shards int
	fail   int // failing shard index, -1 for none
	runs   atomic.Int64
}

func (f *fakeExp) Name() string           { return f.name }
func (f *fakeExp) Title() string          { return "fake " + f.name }
func (f *fakeExp) Kind() Kind             { return KindFigure }
func (f *fakeExp) Scope() string          { return f.name }
func (f *fakeExp) Shards(core.Config) int { return f.shards }

func (f *fakeExp) RunShard(cfg core.Config, shard int) ([]byte, error) {
	f.runs.Add(1)
	if shard == f.fail {
		return nil, fmt.Errorf("shard %d exploded", shard)
	}
	return json.Marshal(map[string]float64{"v": float64(shard) * 1.5})
}

func (f *fakeExp) Fold(core.Config) (Fold, error) { return &fakeFold{f: f}, nil }

func (f *fakeExp) Merge(cfg core.Config, shards [][]byte) (*Outcome, error) {
	return foldShards(f, cfg, shards)
}

// fakeFold sums the payloads and enforces the in-order Absorb contract.
type fakeFold struct {
	f     *fakeExp
	next  int
	total float64
}

func (fd *fakeFold) Absorb(shard int, payload []byte) error {
	if shard != fd.next {
		return fmt.Errorf("fold absorbed shard %d, want %d", shard, fd.next)
	}
	fd.next++
	var p map[string]float64
	if err := json.Unmarshal(payload, &p); err != nil {
		return err
	}
	fd.total += p["v"]
	return nil
}

func (fd *fakeFold) Finish() (*Outcome, error) {
	if fd.next != fd.f.shards {
		return nil, fmt.Errorf("fold saw %d of %d shards", fd.next, fd.f.shards)
	}
	return &Outcome{
		Name: fd.f.name,
		Kind: KindFigure,
		Text: fmt.Sprintf("%s total %.3f over %d shards\n", fd.f.name, fd.total, fd.next),
	}, nil
}

func newFake(name string, shards int) *fakeExp {
	return &fakeExp{name: name, shards: shards, fail: -1}
}

// TestRunnerWorkerCountInvariance is the acceptance property: the same
// seed produces bit-identical results whether the pool has one worker or
// eight.
func TestRunnerWorkerCountInvariance(t *testing.T) {
	exp, ok := Default.Lookup("fig1")
	if !ok {
		t.Fatal("fig1 not registered")
	}
	serial := Runner{Workers: 1}
	parallel := Runner{Workers: 8}

	a, _, err := serial.Run(quickCfg(), []Experiment{exp})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := parallel.Run(quickCfg(), []Experiment{exp})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b[0].Render(), a[0].Render(); got != want {
		t.Errorf("render differs across worker counts:\n-- workers=1 --\n%s\n-- workers=8 --\n%s", want, got)
	}
	if !reflect.DeepEqual(a[0].Result.Values, b[0].Result.Values) {
		t.Errorf("values differ: %v vs %v", a[0].Result.Values, b[0].Result.Values)
	}
	if string(a[0].Raw) != string(b[0].Raw) {
		t.Errorf("raw payloads differ across worker counts")
	}
}

// TestEngineMatchesSerialCore checks the engine path reproduces the
// serial core.Figure1 path bit for bit.
func TestEngineMatchesSerialCore(t *testing.T) {
	exp, _ := Default.Lookup("fig1")
	r := Runner{Workers: 4}
	out, _, err := r.Run(quickCfg(), []Experiment{exp})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.Figure1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out[0].Result.Values, direct.Values) {
		t.Errorf("engine values %v != serial core values %v", out[0].Result.Values, direct.Values)
	}
	if out[0].Result.Figure.Render() != direct.Figure.Render() {
		t.Errorf("engine figure render differs from serial core render")
	}
}

// TestRunnerCacheHitMiss verifies cold-run misses, warm-run hits, zero
// re-execution on a warm cache, and identical outcomes either way.
func TestRunnerCacheHitMiss(t *testing.T) {
	fake := newFake("cachefake", 7)
	cache := NewMemCache()
	r := Runner{Workers: 3, Cache: cache}

	cold, stats, err := r.Run(quickCfg(), []Experiment{fake})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Misses != 7 || stats.Hits != 0 {
		t.Errorf("cold run: hits=%d misses=%d, want 0/7", stats.Hits, stats.Misses)
	}
	if got := fake.runs.Load(); got != 7 {
		t.Errorf("cold run executed %d shards, want 7", got)
	}
	if cache.Len() != 7 {
		t.Errorf("cache holds %d entries, want 7", cache.Len())
	}

	warm, stats, err := r.Run(quickCfg(), []Experiment{fake})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != 7 || stats.Misses != 0 {
		t.Errorf("warm run: hits=%d misses=%d, want 7/0", stats.Hits, stats.Misses)
	}
	if got := fake.runs.Load(); got != 7 {
		t.Errorf("warm run re-executed shards: total runs %d, want 7", got)
	}
	if cold[0].Render() != warm[0].Render() {
		t.Errorf("cached outcome differs from computed outcome")
	}

	// A different seed must miss: the key is content-derived.
	other := quickCfg()
	other.Seed = 99
	if _, stats, err = r.Run(other, []Experiment{fake}); err != nil {
		t.Fatal(err)
	}
	if stats.Misses != 7 {
		t.Errorf("different seed hit the cache: hits=%d misses=%d", stats.Hits, stats.Misses)
	}
}

// TestSharedScopeSharesCache verifies that experiments declaring the
// same cache scope (Figures 7 and 8) reuse each other's shards.
func TestSharedScopeSharesCache(t *testing.T) {
	fig7, _ := Default.Lookup("fig7")
	fig8, _ := Default.Lookup("fig8")
	if fig7.Scope() != fig8.Scope() {
		t.Fatalf("fig7 scope %q != fig8 scope %q", fig7.Scope(), fig8.Scope())
	}
	cfg := quickCfg()
	for s := 0; s < fig7.Shards(cfg); s++ {
		if CacheKey(fig7.Scope(), cfg, s) != CacheKey(fig8.Scope(), cfg, s) {
			t.Errorf("shard %d keys differ between fig7 and fig8", s)
		}
	}
}

// TestRunnerErrorPropagation verifies a failing shard aborts the run
// with a stable error, regardless of pool scheduling.
func TestRunnerErrorPropagation(t *testing.T) {
	bad := newFake("bad", 5)
	bad.fail = 2
	r := Runner{Workers: 4}
	_, _, err := r.Run(quickCfg(), []Experiment{bad})
	if err == nil {
		t.Fatal("failing shard did not surface an error")
	}
	if want := "engine: bad shard 2: shard 2 exploded"; err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
}

// TestFileCacheRoundTrip exercises the on-disk cache.
func TestFileCacheRoundTrip(t *testing.T) {
	fc, err := NewFileCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey("fig1", quickCfg(), 0)
	if _, ok := fc.Get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	fc.Put(key, []byte(`{"native":[1.5]}`))
	b, ok := fc.Get(key)
	if !ok || string(b) != `{"native":[1.5]}` {
		t.Fatalf("round trip failed: ok=%v payload=%s", ok, b)
	}
	if _, ok := fc.Get(CacheKey("fig1", quickCfg(), 1)); ok {
		t.Fatal("different shard index hit the same entry")
	}
}

// TestRegistry exercises registration order, case-insensitive lookup,
// duplicate rejection, and selection.
func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(newFake("Alpha", 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(newFake("beta", 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(newFake("ALPHA", 1)); err == nil {
		t.Error("case-insensitive duplicate accepted")
	}
	if _, ok := r.Lookup("alpha"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if got := r.Names(); !reflect.DeepEqual(got, []string{"Alpha", "beta"}) {
		t.Errorf("names %v not in registration order", got)
	}
	if _, err := r.Select("alpha,nosuch"); err == nil {
		t.Error("unknown selection accepted")
	}
	sel, err := r.Select("beta")
	if err != nil || len(sel) != 1 || sel[0].Name() != "beta" {
		t.Errorf("Select(beta) = %v, %v", sel, err)
	}
	all, err := r.Select("all")
	if err != nil || len(all) != 2 {
		t.Errorf("Select(all) = %d experiments, %v", len(all), err)
	}
}

// TestDefaultCatalog pins the built-in catalog: every figure with paper
// targets is registered, and names resolve the way the CLI advertises.
func TestDefaultCatalog(t *testing.T) {
	for id := range core.PaperTargets {
		e, ok := Default.Lookup(id)
		if !ok {
			t.Errorf("paper target %q has no registered experiment", id)
			continue
		}
		if e.Kind() != KindFigure {
			t.Errorf("%s registered as %s, want figure", id, e.Kind())
		}
	}
	if got := len(Default.ByKind(KindFigure)); got != 9 {
		t.Errorf("%d figures registered, want 9", got)
	}
	for _, name := range []string{"timesync", "migration", "memory", "udploss", "confinement", "multivm", "natqueue", "buscontention", "serviceduty"} {
		if _, ok := Default.Lookup(name); !ok {
			t.Errorf("experiment %q not registered", name)
		}
	}
}
