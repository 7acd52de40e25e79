package core

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"vmdg/internal/bench/iobench"
	"vmdg/internal/bench/nbench"
	"vmdg/internal/bench/sevenz"
	"vmdg/internal/cost"
)

// TestMemoizedCapturesMatchFresh runs every non-fleet experiment at
// quick size, then checks that each memoized 7z profile, NBench program
// and IOBench profile deep-equals a fresh capture with the same key.
// The memo shares one value across every shard that asks for its key,
// so this pins that no experiment mutates a shared profile.
func TestMemoizedCapturesMatchFresh(t *testing.T) {
	cfg := quickCfg()
	for _, def := range ShardedFigures() {
		if _, err := def.RunSerial(cfg); err != nil {
			t.Fatalf("%s: %v", def.ID, err)
		}
	}
	singles := []struct {
		name string
		run  func() error
	}{
		{"timesync", func() error { _, err := TimesyncAblation(cfg); return err }},
		{"migration", func() error { _, err := MigrationAblation(cfg); return err }},
		{"memory", func() error { _, err := MemoryFootprint(); return err }},
		{"buscontention", func() error { _, err := BusContentionSweep(cfg, []float64{0, 0.45}); return err }},
		{"serviceduty", func() error { _, err := ServiceDutySweep(cfg, []float64{0.15, 0.68}); return err }},
		{"natqueue", func() error { _, _, err := NATQueueAblation(cfg); return err }},
		{"udploss", func() error { _, err := UDPLossExperiment(cfg); return err }},
		{"confinement", func() error { _, err := ConfinementExperiment(cfg); return err }},
		{"multivm", func() error { _, err := MultiVMExperiment(cfg); return err }},
	}
	for _, e := range singles {
		if err := e.run(); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
	}

	// The quick pass captures fig1's per-rep profiles, the shared
	// 256 KiB host profile, all ten kernels, and fig3's file sizes.
	want7z := []sevenzKey{{1, 128 << 10, 1}, {2, 128 << 10, 1}, {1, 256 << 10, 1}}
	for _, k := range want7z {
		if _, ok := sevenzMemo.m.Load(k); !ok {
			t.Errorf("7z capture %+v not memoized", k)
		}
	}
	for _, idx := range []nbench.Index{nbench.MemIndex, nbench.IntIndex, nbench.FPIndex} {
		for _, k := range idx.Members() {
			if _, ok := nbenchMemo.m.Load(nbenchKey{k, cfg.Seed, true}); !ok {
				t.Errorf("nbench capture of %v not memoized", k)
			}
		}
	}

	for _, size := range figure3Sizes(cfg) {
		if _, ok := iobenchMemo.m.Load(size); !ok {
			t.Errorf("iobench capture of %d bytes not memoized", size)
		}
	}

	sevenzMemo.m.Range(func(key, f any) bool {
		k := key.(sevenzKey)
		p, run := f.(func() (*cost.Profile, sevenz.Result))()
		fresh, freshRun := sevenz.Profile(k.seed, k.block, k.passes)
		if !reflect.DeepEqual(p, fresh) || !reflect.DeepEqual(run, freshRun) {
			t.Errorf("memoized 7z capture %+v differs from a fresh one", k)
		}
		return true
	})
	nbenchMemo.m.Range(func(key, f any) bool {
		k := key.(nbenchKey)
		p, err := f.(func() (*cost.Profile, error))()
		fresh, freshErr := nbenchKernelProgram(k.kernel, k.seed, k.quick)
		if !reflect.DeepEqual(p, fresh) || !reflect.DeepEqual(err, freshErr) {
			t.Errorf("memoized nbench capture %+v differs from a fresh one", k)
		}
		return true
	})
	iobenchMemo.m.Range(func(key, f any) bool {
		size := key.(int64)
		p, _ := f.(func() (*cost.Profile, struct{}))()
		if !reflect.DeepEqual(p, iobench.Profile(size)) {
			t.Errorf("memoized iobench capture of %d bytes differs from a fresh one", size)
		}
		return true
	})
}

// TestNBenchMemoRepanics: a capture that panics panics again on every
// later call. An entry built on sync.Once would hand the second caller
// a nil profile and a nil error instead.
func TestNBenchMemoRepanics(t *testing.T) {
	bad := nbench.Kernel(42)
	t.Cleanup(func() { nbenchMemo.m.Delete(nbenchKey{bad, 1, true}) })
	call := func() (v any) {
		defer func() { v = recover() }()
		nbenchProgram(bad, 1, true)
		return nil
	}
	for i := 1; i <= 2; i++ {
		if call() == nil {
			t.Fatalf("call %d of the memoized capture of %v did not panic", i, bad)
		}
	}
}

// TestMemoCapturesOnceUnderContention: goroutines racing for one key
// run its capture once and all receive the same value.
func TestMemoCapturesOnceUnderContention(t *testing.T) {
	var m memo[int, *int, error]
	var captures atomic.Int32
	got := make([]*int, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = m.get(7, func() (*int, error) {
				captures.Add(1)
				return new(int), nil
			})
		}()
	}
	wg.Wait()
	if n := captures.Load(); n != 1 {
		t.Fatalf("%d captures for one key", n)
	}
	for i, p := range got {
		if p != got[0] {
			t.Fatalf("goroutine %d got a different value", i)
		}
	}
}
