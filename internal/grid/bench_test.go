package grid

import (
	"fmt"
	"testing"

	"vmdg/internal/sim"
)

// benchScn is one full shard (ShardSize hosts) over a working day —
// the unit the fleet benchmark harness scales up. Quick calibration
// keeps the setup cost out of the measured loop via the process-wide
// memoization.
func benchScn(churn bool) Scenario {
	return Scenario{
		Machines: ShardSize, Minutes: 480, Seed: 1, Quick: true,
		Churn: churn, FaultyFrac: 0.02, Envs: []string{"vmplayer"},
	}.Normalize()
}

func benchRunShard(b *testing.B, scn Scenario) {
	if _, err := RunShard(scn, 0); err != nil { // warm the calibration cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunShard(scn, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	hostSeconds := float64(scn.Machines) * float64(b.N)
	b.ReportMetric(hostSeconds/b.Elapsed().Seconds(), "hosts/s")
}

func BenchmarkRunShardSteady(b *testing.B) { benchRunShard(b, benchScn(false)) }
func BenchmarkRunShardChurn(b *testing.B)  { benchRunShard(b, benchScn(true)) }

// BenchmarkDeadlineAssign times one Assign plus one Submit behind a
// straggler: unit 0 went to a host that never returns, and 1k or 64k
// units have been assigned and returned since. Every call comes before
// the straggler's deadline, so each Assign mints a fresh unit; finding
// that no unit is overdue should cost the same at both sizes. Every
// `issued` operations the policy's books are rewound to the set-up
// state off the clock, keeping their capacity, so they stay between one
// and two times the set-up size and steady state allocates nothing.
func BenchmarkDeadlineAssign(b *testing.B) {
	for _, issued := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("issued=%dk", issued>>10), func(b *testing.B) {
			p := newPolicy(Scenario{Policy: "deadline"}.Normalize(), "b", 1).(*deadlinePolicy)
			cycle := func() {
				wu := p.Assign(1, sim.Second)
				p.Submit(1, wu, resultFor(wu), sim.Second)
			}
			setup := func() {
				*p = deadlinePolicy{
					gen: unitGen{seedBase: p.gen.seedBase, chunks: p.gen.chunks}, slack: p.slack,
					units: p.units[:0], pending: p.pending[:0], expired: p.expired[:0],
				}
				p.Assign(0, 0) // the straggler
				for range issued {
					cycle()
				}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%issued == 0 {
					b.StopTimer()
					setup()
					b.StartTimer()
				}
				cycle()
			}
		})
	}
}

// BenchmarkResolveSpec times the spec work one served sweep does before
// it runs: ResolveSpec on the request's document, then the Normalize,
// Validate and Points of engine.NewSweep and the SweptAxes, NPoints and
// Migrates of the admission log and the renderers. The document is the
// first spec of loadgen.DefaultSpecMix, written out here because this
// package cannot import loadgen.
func BenchmarkResolveSpec(b *testing.B) {
	doc := []byte(`{"version":1,"quick":true,"envs":["vmplayer"],"machines":[60],"minutes":[30],"churn":[true],"policy":["fifo"]}`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp, err := ResolveSpec(doc, nil, 0, false)
		if err != nil {
			b.Fatal(err)
		}
		sp = sp.Normalize()
		if err := sp.Validate(); err != nil {
			b.Fatal(err)
		}
		pts, err := sp.Points()
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 1 || len(sp.SweptAxes()) != 0 || sp.NPoints() != 1 || sp.Migrates() {
			b.Fatal("the document is one unmigrated point")
		}
	}
}
