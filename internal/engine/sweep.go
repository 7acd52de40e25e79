package engine

import (
	"encoding/json"
	"fmt"
	"strings"

	"vmdg/internal/core"
	"vmdg/internal/grid"
)

// NewSweep expands a declarative scenario spec (grid.Spec) into its
// cartesian grid of points and wraps the whole grid as one experiment:
// every point's shards run on the shared worker pool, each point keys
// the cache by its own scenario (sweep point = cache scope, via
// ShardScope), and the merge emits a single cross-scenario table, CSV,
// and JSON artifact keyed by the spec's swept axis values. Re-running
// a sweep with one axis widened simulates only the new points — the
// rest replay from cache.
//
// The run config's Seed and Quick override the spec's for cache-key
// coherence; callers that want the spec to govern (the CLI does) copy
// them into the config first.
func NewSweep(name, title string, spec grid.Spec) (Experiment, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	pts, err := spec.Points()
	if err != nil {
		return nil, err
	}
	vs := make([]fleetVariant, len(pts))
	for i, pt := range pts {
		vs[i] = fleetVariant{label: pt.Label(), scn: pt.Scenario}
	}
	return sweepExperiment{
		fleetExperiment: fleetExperiment{name: name, title: title, variants: vs},
		spec:            spec,
		points:          pts,
	}, nil
}

// sweepExperiment is a fleet experiment whose variants are the points
// of a spec's cartesian grid; only the kind and the merged rendering
// differ (one axis-keyed table instead of one table per variant).
type sweepExperiment struct {
	fleetExperiment
	spec   grid.Spec
	points []grid.Point
}

func (s sweepExperiment) Kind() Kind { return KindSweep }

func (s sweepExperiment) Fold(cfg core.Config) (Fold, error) {
	return &sweepFold{exp: s, cfg: normalize(cfg), variantFold: newVariantFold(s.resolve(cfg))}, nil
}

// Merge must be declared here: the embedded fleet Merge would fold
// through the fleet's Fold, not the sweep's.
func (s sweepExperiment) Merge(cfg core.Config, shards [][]byte) (*Outcome, error) {
	return foldShards(s, cfg, shards)
}

// sweepPayload is the merged JSON artifact: the spec that generated
// the grid plus one fleet result per point, keyed by axis values.
type sweepPayload struct {
	Name   string
	Spec   grid.Spec
	Points []sweepPointResult
}

type sweepPointResult struct {
	Axes  []grid.AxisValue
	Fleet *grid.FleetResult
}

// sweepFold renders the absorbed points as one cross-scenario table.
type sweepFold struct {
	exp sweepExperiment
	cfg core.Config
	variantFold
}

func (fd *sweepFold) Finish() (*Outcome, error) {
	frs, err := fd.results()
	if err != nil {
		return nil, err
	}
	pts := fd.exp.points
	payload := sweepPayload{Name: fd.exp.name}
	if payload.Name == "" {
		payload.Name = fd.exp.spec.Name
	}
	payload.Spec = fd.exp.spec
	// The run config's Seed and Quick govern what actually simulated
	// (resolve applies them to every point); stamp them into the
	// recorded spec so the artifact's provenance matches the table.
	payload.Spec.Seed = fd.cfg.Seed
	payload.Spec.Quick = fd.cfg.Quick
	for i, pt := range pts {
		payload.Points = append(payload.Points, sweepPointResult{Axes: pt.Axes, Fleet: frs[i]})
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Name:    fd.exp.name,
		Kind:    KindSweep,
		Text:    renderSweep(fd.exp.spec, fd.cfg, pts, frs),
		CSVText: sweepCSV(fd.exp.spec, pts, frs),
		Raw:     raw,
	}, nil
}

// renderSweep builds the merged table: one row per (point,
// environment), keyed by the swept axis values. When any point
// migrates checkpoints the table gains the migration columns (for
// every row — columns must agree down the table); a migration-free
// sweep renders in its pre-migration byte-exact form.
func renderSweep(spec grid.Spec, cfg core.Config, pts []grid.Point, frs []*grid.FleetResult) string {
	axes := spec.SweptAxes()
	mig := spec.Migrates()
	var b strings.Builder
	axisDesc := "no swept axes"
	if len(axes) > 0 {
		axisDesc = "axes " + strings.Join(axes, " × ")
	}
	fmt.Fprintf(&b, "sweep: %d points (%s) × %d env(s), seed %d\n\n",
		len(pts), axisDesc, len(spec.Normalize().Envs), cfg.Seed)

	labelW := len("point")
	for _, pt := range pts {
		if l := len(pointLabel(pt)); l > labelW {
			labelW = l
		}
	}
	fmt.Fprintf(&b, "%-*s %-14s %9s %6s %4s %7s %6s %10s %7s %7s %7s",
		labelW, "point", "environment", "validated", "outst", "bad", "invalid",
		"evict", "lost-chnk", "avail%", "p50ms", "p95ms")
	if mig {
		fmt.Fprintf(&b, " %6s %9s %7s %7s", "migr", "saved-min", "tx-MB", "rx-MB")
	}
	b.WriteByte('\n')
	for i, pt := range pts {
		fr := frs[i]
		for _, st := range fr.Envs {
			horizon := float64(fr.Scenario.Minutes) * 60 * float64(st.Hosts)
			avail := 0.0
			if horizon > 0 {
				avail = 100 * st.OnSeconds / horizon
			}
			fmt.Fprintf(&b, "%-*s %-14s %9d %6d %4d %7d %6d %10d %7.1f %7.1f %7.1f",
				labelW, pointLabel(pt), st.Env,
				st.Policy.Validated, st.Policy.Outstanding, st.Policy.Bad,
				st.Policy.Invalid, st.Evictions, st.LostChunks, avail,
				st.Latency.Percentile(0.50), st.Latency.Percentile(0.95))
			if mig {
				fmt.Fprintf(&b, " %6d %9.1f %7.1f %7.1f",
					st.Migrations, st.MigSavedSec/60,
					float64(st.MigTxBytes)/1e6, float64(st.MigRxBytes)/1e6)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// sweepCSV emits one column per swept axis ahead of the full fleet
// columns, so the artifact is directly groupable by axis value. With
// nothing swept it degrades to the plain fleet CSV.
func sweepCSV(spec grid.Spec, pts []grid.Point, frs []*grid.FleetResult) string {
	axes := spec.SweptAxes()
	header, rows := grid.CSVHeader(), (*grid.FleetResult).CSVRows
	if spec.Migrates() {
		header, rows = grid.MigCSVHeader(), (*grid.FleetResult).MigCSVRows
	}
	var b strings.Builder
	if len(axes) == 0 {
		b.WriteString(header)
		for i := range pts {
			b.WriteString(rows(frs[i], ""))
		}
		return b.String()
	}
	// The header leads with a free-form "variant" column; the sweep
	// replaces it with the axis columns and passes the point's axis
	// values as that cell, which the CSV writer emits verbatim.
	b.WriteString(strings.Join(axes, ","))
	b.WriteByte(',')
	b.WriteString(strings.TrimPrefix(header, "variant,"))
	for i, pt := range pts {
		vals := make([]string, len(pt.Axes))
		for j, av := range pt.Axes {
			vals[j] = av.Value
		}
		b.WriteString(rows(frs[i], strings.Join(vals, ",")))
	}
	return b.String()
}

// pointLabel is the table key for one point; a sweep of a single point
// has no swept axes to show.
func pointLabel(pt grid.Point) string {
	if l := pt.Label(); l != "" {
		return l
	}
	return "(spec)"
}
