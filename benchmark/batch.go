package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"vmdg/internal/core"
	"vmdg/internal/engine"
	"vmdg/internal/grid"
)

// batch is a workload whose operation is one Runner.Run over a fixed
// experiment list: a paper pass or a fleet run. Every operation gets a
// fresh on-disk cache with the memory tier and fold journal on — what
// the CLI does by default — so every shard is computed, stored and
// journaled, never replayed.
type batch struct {
	o      opts
	tr     *tracer
	cfg    core.Config
	exps   []engine.Experiment
	traced []engine.Experiment
	scn    *grid.Scenario // the fleet scenario; nil for the paper pass
	items  float64

	dir         string
	calibration time.Duration
	digest      string
	fleet       *grid.FleetResult // the first run's merged fleet, for counts
	sample      []shardRef
	ops         []opRecord // traced operations
	ledger
}

// shardRef is one shard picked for a serial re-run, with the payload
// the measured window stored for it.
type shardRef struct {
	exp     engine.Experiment
	shard   int
	key     string
	payload []byte
}

// opRecord is what a traced operation leaves beside its spans.
type opRecord struct {
	span    int
	stats   engine.Stats
	journal int64
}

func newBatch(o opts, tr *tracer, cfg core.Config, exps []engine.Experiment, scn *grid.Scenario) *batch {
	b := &batch{o: o, tr: tr, cfg: cfg, exps: exps, scn: scn, items: float64(len(exps))}
	if scn != nil {
		b.items = float64(scn.Normalize().Machines)
	}
	if tr != nil {
		for _, e := range exps {
			b.traced = append(b.traced, traceExperiment(e, tr))
		}
	}
	return b
}

// setup makes the scratch directory and, for fleets, runs the detailed-
// stack calibrations every fleet run shares: a one-minute fleet of one
// population slice per environment, which meets every host class. The
// calibrations are memoized per process, so the measured runs reuse
// them exactly as a long-lived process would.
func (b *batch) setup() error {
	dir, err := os.MkdirTemp(b.o.work, b.o.workload+"-*")
	if err != nil {
		return err
	}
	b.dir = dir
	b.sample = pickShards(b.exps, b.cfg, b.o.seed)
	if b.scn == nil {
		return nil
	}
	warm := grid.Scenario{Machines: grid.ShardSize, Minutes: 1, Envs: b.scn.Envs, ChunksPerUnit: b.scn.ChunksPerUnit}
	start := time.Now()
	_, _, err = (&engine.Runner{Workers: workers}).Run(b.cfg,
		[]engine.Experiment{engine.FleetScenario("calibrate", "calibration warm-up", warm)})
	b.calibration = time.Since(start)
	return err
}

// pickShards draws two distinct shards, seeded, for the serial re-run.
func pickShards(exps []engine.Experiment, cfg core.Config, seed uint64) []shardRef {
	var all []shardRef
	for _, e := range exps {
		n := e.Shards(cfg)
		scopes, locals := make([]string, n), make([]int, n)
		if ss, ok := e.(engine.ShardScoper); ok {
			scopes, locals = ss.ShardScopes(cfg)
		} else {
			for s := range scopes {
				scopes[s], locals[s] = e.Scope(), s
			}
		}
		for s := 0; s < n; s++ {
			all = append(all, shardRef{exp: e, shard: s, key: engine.CacheKey(scopes[s], cfg, locals[s])})
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x5ab))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:min(2, len(all))]
}

func (b *batch) measure(d time.Duration, traced bool) window {
	w := window{}
	if traced {
		w.first = b.tr.count()
	}
	start := time.Now()
	for len(w.lat) == 0 || time.Since(start) < d {
		lat, err := b.op(traced)
		b.note(err)
		if err != nil {
			break
		}
		w.lat = append(w.lat, lat.Seconds()*1000)
		w.items += b.items
	}
	w.wall = time.Since(start)
	if traced {
		w.last = b.tr.count()
	}
	return w
}

// op runs one operation on a fresh cache and checks its outputs against
// the first operation's. Only the Run call is timed.
func (b *batch) op(traced bool) (time.Duration, error) {
	dir, err := os.MkdirTemp(b.dir, "op-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	fc, err := engine.NewFileCache(dir)
	if err != nil {
		return 0, err
	}
	fc.EnableMemTier(engine.DefaultMemTierBytes)
	r := &engine.Runner{Workers: workers, Cache: fc, Manifests: fc.Manifests()}
	exps, id := b.exps, -1
	if traced {
		exps = b.traced
		r.Cache = tracedCache{Cache: fc, tr: b.tr}
		id = b.tr.begin("engine.run", b.o.workload)
		b.tr.parent.Store(int64(id))
		r.OnEvent = func(ev engine.Event) {
			if ev.Kind != engine.EventExperimentMerged {
				now := b.tr.now()
				b.tr.add("engine.event", ev.Experiment, now, now, id)
			}
		}
	}
	start := time.Now()
	outs, stats, err := r.Run(b.cfg, exps)
	lat := time.Since(start)
	if traced {
		b.tr.end(id)
		b.tr.parent.Store(-1)
	}
	if err != nil {
		return lat, err
	}
	digest := outcomesDigest(outs)
	if b.digest == "" {
		b.digest = digest
		if err := b.keep(fc, outs); err != nil {
			return lat, err
		}
	} else if digest != b.digest {
		return lat, fmt.Errorf("%s: outputs differ between operations of one run (%.12s vs %.12s)", b.o.workload, digest, b.digest)
	}
	if traced {
		st, err := fc.Stats()
		if err != nil {
			return lat, err
		}
		b.ops = append(b.ops, opRecord{span: id, stats: stats, journal: st.ManifestBytes})
	}
	return lat, nil
}

// keep saves what the checks and counts need from the first operation:
// the sampled shards' stored payloads and the merged fleet.
func (b *batch) keep(fc *engine.FileCache, outs []*engine.Outcome) error {
	for i := range b.sample {
		p, ok := fc.Get(b.sample[i].key)
		if !ok {
			return fmt.Errorf("%s: shard %d of %s missing from the run's cache", b.o.workload, b.sample[i].shard, b.sample[i].exp.Name())
		}
		b.sample[i].payload = p
	}
	if b.scn == nil {
		return nil
	}
	var merged struct {
		Variants []struct{ Fleet *grid.FleetResult }
	}
	if err := json.Unmarshal(outs[0].Raw, &merged); err != nil {
		return fmt.Errorf("%s: merged fleet payload: %w", b.o.workload, err)
	}
	if len(merged.Variants) != 1 || merged.Variants[0].Fleet == nil {
		return fmt.Errorf("%s: merged fleet payload has %d variants", b.o.workload, len(merged.Variants))
	}
	b.fleet = merged.Variants[0].Fleet
	return nil
}

// check re-runs the sampled shards serially through the public
// Experiment API: each must reproduce the stored payload byte for byte.
func (b *batch) check() {
	for _, s := range b.sample {
		if s.payload == nil {
			continue // the window failed before storing it
		}
		got, err := s.exp.RunShard(b.cfg, s.shard)
		if err == nil && !bytes.Equal(got, s.payload) {
			err = fmt.Errorf("%s: serial re-run of %s shard %d differs from the pooled run", b.o.workload, s.exp.Name(), s.shard)
		}
		b.note(err)
	}
}

func (b *batch) result() (*ledger, string) { return &b.ledger, b.digest }

func (b *batch) close() {
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}

// layers derives the per-layer metrics of the traced window: per
// operation sums and maxima over its spans, then the median over
// operations; latencies of cache calls pool over the window.
func (b *batch) layers(w window) map[string]float64 {
	spans := b.tr.snapshot()
	children := map[int][]span{}
	var gets, puts []float64
	for _, s := range spans[w.first:w.last] {
		if s.Parent < 0 {
			continue
		}
		children[s.Parent] = append(children[s.Parent], s)
		switch s.Name {
		case "engine.cache_get":
			gets = append(gets, ms(s.dur()))
		case "engine.cache_put":
			puts = append(puts, ms(s.dur()))
		}
	}
	per := map[string][]float64{}
	for _, op := range b.ops {
		run := spans[op.span]
		var compute, maxShard, fold, merge, firstEvent, maxGap float64
		byExp := map[string]float64{}
		var timed []span
		prev := run.Start
		// Children arrive in recording order, so the event instants
		// are in fold order.
		for _, c := range children[op.span] {
			d := c.dur().Seconds()
			switch c.Name {
			case "engine.compute":
				compute += d
				maxShard = max(maxShard, d)
				byExp[c.Attr] += d
			case "engine.fold":
				fold += d
			case "engine.merge":
				merge += d
			case "engine.event":
				if prev == run.Start {
					firstEvent = time.Duration(c.Start - run.Start).Seconds()
				}
				maxGap = max(maxGap, time.Duration(c.Start-prev).Seconds())
				prev = c.Start
				continue
			}
			timed = append(timed, c)
		}
		add := func(name string, v float64) { per[name] = append(per[name], v) }
		add("engine.compute_s", compute)
		add("engine.max_shard_s", maxShard)
		add("engine.pool_busy_ratio", compute/(run.dur().Seconds()*workers))
		add("engine.self_s", selfTime(run, timed).Seconds())
		add("engine.fold_s", fold)
		add("engine.merge_s", merge)
		add("engine.max_fold_gap_s", maxGap)
		add("engine.first_event_s", firstEvent)
		add("engine.hit_ratio", float64(op.stats.Hits)/float64(op.stats.Shards))
		add("engine.journal_bytes", float64(op.journal))
		if b.scn == nil {
			for _, e := range paperExperiments {
				add("core.compute_s."+e, byExp[e])
			}
		}
	}
	m := map[string]float64{}
	for name, vs := range per {
		m[name] = median(vs)
	}
	m["engine.cache_put_ms.p50"] = median(puts)
	m["engine.cache_put_ms.tail"] = tail(puts)
	m["engine.cache_get_ms.p50"] = median(gets)
	m["engine.cache_puts"] = float64(len(puts))
	if b.scn != nil && b.fleet != nil {
		b.fleetCounts(m)
	}
	return m
}

// fleetCounts adds the merged fleet's deterministic counts and the
// compute time per unit of model work.
func (b *batch) fleetCounts(m map[string]float64) {
	var ev, restores, lost, migr, fired, tx, rx, assign, issued, valid, invalid float64
	for _, st := range b.fleet.Envs {
		ev += float64(st.Evictions)
		restores += float64(st.Restores)
		lost += float64(st.LostChunks)
		migr += float64(st.Migrations)
		fired += float64(st.Fired)
		tx += float64(st.MigTxBytes)
		rx += float64(st.MigRxBytes)
		assign += float64(st.Policy.Assignments)
		issued += float64(st.Policy.UnitsIssued)
		valid += float64(st.Policy.Validated)
		invalid += float64(st.Policy.Invalid)
	}
	compute := m["engine.compute_s"]
	m["grid.calibration_s"] = b.calibration.Seconds()
	m["grid.hosts_per_compute_s"] = ratio(b.items, compute)
	m["grid.evictions"], m["grid.restores"], m["grid.lost_chunks"], m["grid.migrations"] = ev, restores, lost, migr
	m["sim.events_fired"] = fired
	m["sim.ns_per_event"] = ratio(compute*1e9, fired)
	m["netsim.tx_bytes"], m["netsim.rx_bytes"] = tx, rx
	m["boinc.assignments"], m["boinc.units_issued"] = assign, issued
	m["boinc.validated"], m["boinc.invalid"] = valid, invalid
	m["boinc.us_per_assignment"] = ratio(compute*1e6, assign)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }
