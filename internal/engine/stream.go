package engine

import (
	"fmt"

	"vmdg/internal/core"
)

// Fold accumulates one experiment's shard payloads into its Outcome. It
// is the only way the runner merges: it absorbs each payload the
// moment the in-order prefix of the run's tasks completes, so an
// experiment that reduces as it goes (fleets, sweeps) holds one decoded
// shard at a time and a run's memory is bounded by the reorder window,
// not the shard count. Experiments whose assembly needs every shard at
// once (the figures) collect them instead (see collect).
type Fold interface {
	// Absorb folds shard's payload into the accumulator. The runner
	// calls it from a single goroutine, in strictly increasing shard
	// order with no gaps. The payload is read-only: it may be shared
	// with the cache and with other experiments' folds.
	Absorb(shard int, payload []byte) error
	// Finish completes the fold. The runner calls it exactly once,
	// after the last Absorb.
	Finish() (*Outcome, error)
}

// Folder names an experiment with a fold. Every Experiment has one;
// the name stays for callers that still assert it.
type Folder = Experiment

// foldShards is the batch form of an experiment's fold: it absorbs a
// complete payload set, in shard order, into a fresh fold and finishes
// it. Experiments that reduce as they go implement Merge as this call;
// the collecting ones fold through Merge instead (collect). Either way
// a batch merge cannot drift from the runner's streaming one.
func foldShards(e Experiment, cfg core.Config, shards [][]byte) (*Outcome, error) {
	fold, err := e.Fold(cfg)
	if err != nil {
		return nil, err
	}
	for i, b := range shards {
		if err := fold.Absorb(i, b); err != nil {
			return nil, err
		}
	}
	return fold.Finish()
}

// collectFold is the generic fold of an experiment whose assembly needs
// all of its shards at once: it keeps every payload and hands the
// ordered set to merge at Finish. Keeping the payloads is safe because
// they are read-only; the figures and single-shard experiments it
// serves have a few dozen small shards at most.
type collectFold struct {
	cfg    core.Config
	merge  func(cfg core.Config, shards [][]byte) (*Outcome, error)
	shards [][]byte
}

func collect(cfg core.Config, merge func(core.Config, [][]byte) (*Outcome, error)) Fold {
	return &collectFold{cfg: cfg, merge: merge}
}

func (c *collectFold) Absorb(_ int, payload []byte) error {
	c.shards = append(c.shards, payload)
	return nil
}

func (c *collectFold) Finish() (*Outcome, error) { return c.merge(c.cfg, c.shards) }

// orderedFold upholds the in-order Absorb contract when the runner's
// task order diverges from an experiment's shard order. That happens
// when equal cache keys collapse into one task: two identical sweep
// points (a duplicated axis value), or an experiment sharing shards
// with an earlier experiment in the same run, receive a payload for a
// later shard while earlier shards are still pending. The wrapper
// holds such payloads and drains them the moment the gap fills. It
// holds only key-shared stragglers — ordinary runs, where every shard
// is its own task in shard order, never hold anything.
type orderedFold struct {
	fold    Fold
	next    int
	pending map[int][]byte
}

func newOrderedFold(f Fold) *orderedFold {
	return &orderedFold{fold: f, pending: map[int][]byte{}}
}

func (o *orderedFold) Absorb(shard int, payload []byte) error {
	if shard != o.next {
		o.pending[shard] = payload
		return nil
	}
	if err := o.fold.Absorb(shard, payload); err != nil {
		return err
	}
	o.next++
	for {
		b, ok := o.pending[o.next]
		if !ok {
			return nil
		}
		delete(o.pending, o.next)
		if err := o.fold.Absorb(o.next, b); err != nil {
			return err
		}
		o.next++
	}
}

func (o *orderedFold) Finish() (*Outcome, error) {
	if len(o.pending) > 0 {
		return nil, fmt.Errorf("engine: fold finished with %d shards still pending before shard %d", len(o.pending), o.next)
	}
	return o.fold.Finish()
}
