package engine

import (
	"encoding/json"
	"strings"

	"vmdg/internal/core"
)

// Kind classifies an experiment for listing and selection.
type Kind string

const (
	// KindFigure is one of the paper's nine figures.
	KindFigure Kind = "figure"
	// KindAblation is a methodology ablation (timing, migration, memory).
	KindAblation Kind = "ablation"
	// KindSensitivity sweeps a calibrated model parameter.
	KindSensitivity Kind = "sensitivity"
	// KindExtension is an experiment beyond the paper (UDP loss,
	// confinement, multi-VM).
	KindExtension Kind = "extension"
	// KindFleet is a desktop-grid fleet scenario (internal/grid):
	// thousands of churning volunteer hosts under a scheduling policy.
	KindFleet Kind = "fleet"
	// KindSweep is a declarative scenario sweep (grid.Spec): the
	// cartesian grid over a spec's swept axes, merged into one
	// cross-scenario table.
	KindSweep Kind = "sweep"
)

// Experiment is one entry of the registry: a named, sharded, folded
// unit of the reproduction.
//
// RunShard must be deterministic in (cfg, shard), must not share mutable
// state with other shards, and must return a JSON document that
// round-trips exactly (the cache stores and replays these bytes). The
// fold must be a pure function of the shard payloads taken in shard
// order — the runner feeds it in that order whatever the completion
// order was.
type Experiment interface {
	// Name identifies the experiment ("fig1", "timesync", ...).
	Name() string
	// Title is a one-line human description.
	Title() string
	// Kind classifies the experiment.
	Kind() Kind
	// Scope names the cache-sharing domain; experiments with equal
	// scopes and configs share shard results.
	Scope() string
	// Shards reports the number of independent units for cfg.
	Shards(cfg core.Config) int
	// RunShard executes one unit and returns its JSON payload.
	RunShard(cfg core.Config, shard int) ([]byte, error)
	// Fold returns a fresh accumulator for one run; it is how the
	// runner merges every experiment (see Fold).
	Fold(cfg core.Config) (Fold, error)
	// Merge merges a complete payload set in one call and must agree
	// with Fold: experiments that reduce as they go implement it as
	// foldShards, collecting ones fold through it (collect). The
	// runner never calls it; it stays for wrappers that forward it
	// (the benchmark's tracing wrapper).
	Merge(cfg core.Config, shards [][]byte) (*Outcome, error)
}

// Outcome is one completed experiment.
type Outcome struct {
	// Name and Kind echo the experiment.
	Name string
	Kind Kind
	// Result holds the figure for figure-shaped experiments (and the
	// memory-footprint ablation); nil otherwise.
	Result *core.Result
	// Text is the pre-rendered report for experiments without a figure.
	Text string
	// CSVText is the pre-rendered CSV for experiments whose tabular
	// form does not come from a core.Result figure (fleet scenarios).
	CSVText string
	// Raw is the merged payload, for JSON artifacts.
	Raw json.RawMessage
}

// Render returns the outcome's ASCII report: the figure, its detail
// series, and the paper-vs-measured comparison where the paper publishes
// targets; or the experiment's own text.
func (o *Outcome) Render() string {
	var b strings.Builder
	if o.Result != nil {
		b.WriteString(o.Result.Figure.Render())
		if o.Result.Series != nil {
			b.WriteByte('\n')
			b.WriteString(o.Result.Series.Render())
		}
		if cmp := PaperComparison(o.Result); cmp != "" {
			b.WriteByte('\n')
			b.WriteString(cmp)
		}
	}
	if o.Text != "" {
		b.WriteString(o.Text)
	}
	return b.String()
}

// CSV returns the outcome's machine-readable form, or "" when the
// experiment has no tabular data.
func (o *Outcome) CSV() string {
	if o.CSVText != "" {
		return o.CSVText
	}
	if o.Result == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString(o.Result.Figure.CSV())
	if o.Result.Series != nil {
		b.WriteString(o.Result.Series.CSV())
	}
	return b.String()
}

// normalize pins the config fields that key the cache, so Reps==0 and
// Reps==3 (the documented default) hit the same entries.
func normalize(cfg core.Config) core.Config {
	if cfg.Reps <= 0 {
		cfg.Reps = 3
	}
	return cfg
}
