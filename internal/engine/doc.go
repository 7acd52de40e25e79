// Package engine is the reproduction's parallel experiment engine: a
// registry of every figure, ablation, and sensitivity experiment, and a
// runner that executes them across a worker pool.
//
// Each experiment is decomposed into shards — independent, deterministic
// units of work that boot their own simulated machine and share no
// mutable state — plus a pure fold over their payloads. The runner fans
// shards from every requested experiment into one pool (shared across
// runs, or private to one), so independent experiments and independent
// repetitions overlap, while each individual simulation stays
// single-threaded (the sim kernel's determinism requirement). The fold
// takes payloads in shard order whatever the completion order, so the
// engine's output is bit-identical for any worker count, and identical
// to the serial core.FigureN path.
//
// Shard results are content-keyed (experiment scope × seed × reps ×
// quick × shard) and cached, in memory or on disk, so repeated CLI and
// benchmark invocations skip completed work. Experiments that share a
// measurement set — Figures 7 and 8 both consume the ten 7z host-rate
// measurements — declare a common cache scope and reuse each other's
// shards.
//
// The built-in catalog (see catalog.go) registers the nine paper figures
// and the ablation/sensitivity/extension experiments in the Default
// registry; new experiments register with Register.
//
// Above single scenarios sits the sweep layer: NewSweep expands a
// declarative grid.Spec (a family of fleet scenarios with list-valued
// axes) into its cartesian grid and runs the whole grid as one
// experiment. Each sweep point is its own cache scope (ShardScoper),
// so widening an axis re-simulates only the new points, and the merge
// emits a single table, CSV, and JSON artifact keyed by the swept axis
// values. Runner progress is observable through the typed OnEvent
// callback: one shard event per task, in deterministic order, then one
// merge event per experiment.
package engine
