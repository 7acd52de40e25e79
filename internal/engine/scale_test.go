package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"vmdg/internal/core"
	"vmdg/internal/grid"
)

// scaleScenario draws one 100k+-host fleet scenario from a fixed-seed
// stream: big enough that the runner dispatches hundreds of shards
// across every worker count under test, varied enough (policy,
// churn, faulty fraction, horizon) that invariance is checked on more
// than one code path. A failure reproduces exactly from the seed.
func scaleScenario(rng *rand.Rand) grid.Scenario {
	policies := []string{"fifo", "deadline"}
	return grid.Scenario{
		Machines:   100_000 + rng.Intn(40_000),
		Minutes:    45 + rng.Intn(45),
		Seed:       1,
		Quick:      true,
		Churn:      rng.Intn(2) == 0,
		Policy:     policies[rng.Intn(len(policies))],
		FaultyFrac: float64(rng.Intn(3)) * 0.02,
		Envs:       []string{"vmplayer"},
	}.Normalize()
}

// TestScaleInvarianceAcrossWorkerCounts is the scale-invariance
// contract behind the multi-core fleet kernel: a six-figure-host
// scenario must produce byte-identical table, CSV, and JSON artifacts
// — and the same deterministic event sequence — whether one worker
// runs every shard or eight workers race over them, one task at a
// time. Each run uses its own cold cache, so every worker count
// simulates every shard rather than replaying the first run's bytes.
func TestScaleInvarianceAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 100k+-host fleets three times per scenario")
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2; i++ {
		scn := scaleScenario(rng)
		label := scn.Key()
		if scn.Machines < 100_000 {
			t.Fatalf("%s: population below the 100k floor the test promises", label)
		}

		type artifact struct {
			workers int
			text    string
			csv     string
			raw     []byte
			events  []Event
		}
		var base *artifact
		for _, workers := range []int{1, 4, 8} {
			var events []Event
			r := &Runner{
				Workers: workers,
				Cache:   NewMemCache(),
				OnEvent: func(ev Event) { events = append(events, ev) },
			}
			exp := FleetScenario(fmt.Sprintf("scale%d", i), "scale invariance", scn)
			outs, stats, err := r.Run(core.Config{Seed: 1, Quick: true}, []Experiment{exp})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", label, workers, err)
			}
			if stats.Hits != 0 {
				t.Fatalf("%s workers=%d: %d cache hits on a cold cache — the run compared replayed bytes, not simulation",
					label, workers, stats.Hits)
			}
			got := &artifact{workers: workers, text: outs[0].Render(), csv: outs[0].CSV(), raw: outs[0].Raw, events: events}
			if base == nil {
				base = got
				continue
			}
			if got.text != base.text {
				t.Errorf("%s: table differs between %d and %d workers", label, base.workers, got.workers)
			}
			if got.csv != base.csv {
				t.Errorf("%s: CSV differs between %d and %d workers", label, base.workers, got.workers)
			}
			if !bytes.Equal(got.raw, base.raw) {
				t.Errorf("%s: JSON differs between %d and %d workers", label, base.workers, got.workers)
			}
			if len(got.events) != len(base.events) {
				t.Fatalf("%s: %d events at %d workers vs %d at %d workers",
					label, len(got.events), got.workers, len(base.events), base.workers)
			}
			for j := range got.events {
				if got.events[j] != base.events[j] {
					t.Fatalf("%s: event %d differs between %d and %d workers: %+v vs %+v",
						label, j, base.workers, got.workers, base.events[j], got.events[j])
					break
				}
			}
		}
	}
}
