package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vmdg/internal/core"
	"vmdg/internal/engine"
)

// span is one traced interval at a layer boundary. Parent indexes the
// span that caused it (-1 for a root); spans of one served request
// share Req. Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a traced run's spans in memory; they are written out
// once, when the run ends. Every span is recorded from the benchmark's
// own wrappers around the calls into a layer, never from inside the
// program. parent is the span new engine-side spans attach to: the
// engine.run span of the batch operation in flight.
type tracer struct {
	epoch  time.Time
	parent atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.parent.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a root span — one operation — and returns its id; end
// closes it. The root's Req is its id plus one, and every span the
// operation causes carries the same Req.
func (t *tracer) begin(name, attr string) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Attr: attr, Start: start, End: start, Parent: -1, Req: uint64(id + 1)})
	return id
}

func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end
}

// record adds a span that started at start and ends now, under the
// current parent.
func (t *tracer) record(name, attr string, start int64) {
	t.add(name, attr, start, t.now(), int(t.parent.Load()))
}

func (t *tracer) add(name, attr string, start, end int64, parent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Attr: attr, Start: start, End: end, Parent: parent, Req: uint64(parent + 1)})
}

// count is the number of spans recorded so far.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the trace as JSON: the run's identity and machine next
// to every span.
func (t *tracer) write(path string, header map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	header["spans"] = t.snapshot()
	if err := json.NewEncoder(f).Encode(header); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceExperiment wraps e so its shard computations, folds and merges
// are traced. The wrapper forwards ShardScoper and Folder exactly when
// e implements them, so the runner keys the cache and merges the
// experiment the same way it would unwrapped.
func traceExperiment(e engine.Experiment, t *tracer) engine.Experiment {
	base := tracedExp{Experiment: e, tr: t}
	_, scoped := e.(engine.ShardScoper)
	_, folds := e.(engine.Folder)
	switch {
	case scoped && folds:
		return tracedScoperFolder{tracedScoper{base}}
	case scoped:
		return tracedScoper{base}
	case folds:
		return tracedFolder{base}
	}
	return base
}

type tracedExp struct {
	engine.Experiment
	tr *tracer
}

func (e tracedExp) RunShard(cfg core.Config, shard int) ([]byte, error) {
	start := e.tr.now()
	b, err := e.Experiment.RunShard(cfg, shard)
	e.tr.record("engine.compute", e.Name(), start)
	return b, err
}

func (e tracedExp) Merge(cfg core.Config, shards [][]byte) (*engine.Outcome, error) {
	start := e.tr.now()
	o, err := e.Experiment.Merge(cfg, shards)
	e.tr.record("engine.merge", e.Name(), start)
	return o, err
}

func (e tracedExp) fold(cfg core.Config) (engine.Fold, error) {
	f, err := e.Experiment.(engine.Folder).Fold(cfg)
	if err != nil {
		return nil, err
	}
	return tracedFold{Fold: f, tr: e.tr, exp: e.Name()}, nil
}

type tracedScoper struct{ tracedExp }

func (e tracedScoper) ShardScopes(cfg core.Config) ([]string, []int) {
	return e.Experiment.(engine.ShardScoper).ShardScopes(cfg)
}

type tracedFolder struct{ tracedExp }

func (e tracedFolder) Fold(cfg core.Config) (engine.Fold, error) { return e.fold(cfg) }

type tracedScoperFolder struct{ tracedScoper }

func (e tracedScoperFolder) Fold(cfg core.Config) (engine.Fold, error) { return e.fold(cfg) }

type tracedFold struct {
	engine.Fold
	tr  *tracer
	exp string
}

func (f tracedFold) Absorb(shard int, payload []byte) error {
	start := f.tr.now()
	err := f.Fold.Absorb(shard, payload)
	f.tr.record("engine.fold", f.exp, start)
	return err
}

func (f tracedFold) Finish() (*engine.Outcome, error) {
	start := f.tr.now()
	o, err := f.Fold.Finish()
	f.tr.record("engine.fold", f.exp, start)
	return o, err
}

// tracedCache times the runner's cache lookups and stores.
type tracedCache struct {
	engine.Cache
	tr *tracer
}

func (c tracedCache) Get(key string) ([]byte, bool) {
	start := c.tr.now()
	b, ok := c.Cache.Get(key)
	attr := "miss"
	if ok {
		attr = "hit"
	}
	c.tr.record("engine.cache_get", attr, start)
	return b, ok
}

func (c tracedCache) Put(key string, payload []byte) {
	start := c.tr.now()
	c.Cache.Put(key, payload)
	c.tr.record("engine.cache_put", "", start)
}

// Headers by which a traced client tells the timing middleware which
// request span a handler span belongs to.
const (
	spanHeader  = "X-Bench-Span"
	classHeader = "X-Bench-Class"
)

// traceHandler times every request h serves while on is set, as a
// serve.handler span under the client's request span.
func traceHandler(h http.Handler, t *tracer, on *atomic.Bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		end := t.now()
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			parent = -1
		}
		t.add("serve.handler", r.Header.Get(classHeader), start, end, parent)
	})
}

// selfTime is the part of parent's interval that none of the children
// cover: time the layer spent on its own work or waiting.
func selfTime(parent span, children []span) time.Duration {
	cs := append([]span(nil), children...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	covered, reach := int64(0), parent.Start
	for _, c := range cs {
		lo, hi := max(c.Start, reach), min(c.End, parent.End)
		if hi > lo {
			covered += hi - lo
			reach = hi
		}
	}
	return parent.dur() - time.Duration(covered)
}
