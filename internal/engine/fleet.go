package engine

import (
	"encoding/json"
	"fmt"
	"strings"

	"vmdg/internal/core"
	"vmdg/internal/grid"
)

// This file adapts internal/grid fleet scenarios to the Experiment
// interface, so fleets inherit the worker pool and the content-keyed
// shard cache, and registers the built-in fleet catalog.

// fleetVariant is one scenario inside a fleet experiment, with the
// label the merged report uses for it.
type fleetVariant struct {
	label string
	scn   grid.Scenario
}

// fleetExperiment runs one or more fleet scenario variants as a single
// experiment. Shard indices enumerate the variants' shards in variant
// order, so the engine can schedule every (variant, shard) cell onto
// the pool; the merge regroups them.
//
// The variant list is fixed: the config contributes only Seed and
// Quick, which CacheKey already carries. Scope must describe exactly
// what RunShard executes for every config — a config-dependent variant
// list would let two experiments share a scope while simulating
// different populations, silently cross-feeding cached shards.
type fleetExperiment struct {
	name, title string
	variants    []fleetVariant
}

func (f fleetExperiment) Name() string  { return f.name }
func (f fleetExperiment) Title() string { return f.title }
func (f fleetExperiment) Kind() Kind    { return KindFleet }

// resolve applies cfg to the variant list.
func (f fleetExperiment) resolve(cfg core.Config) []fleetVariant {
	vs := make([]fleetVariant, len(f.variants))
	copy(vs, f.variants)
	for i := range vs {
		vs[i].scn.Seed = cfg.Seed
		vs[i].scn.Quick = cfg.Quick
		vs[i].scn = vs[i].scn.Normalize()
	}
	return vs
}

// Scope keys the cache by every scenario parameter (Seed and Quick are
// contributed by CacheKey itself). It is descriptive only: the runner
// keys fleet shards per variant through ShardScope, so variants keep
// their cached shards when the list around them changes.
func (f fleetExperiment) Scope() string {
	var parts []string
	for _, v := range f.variants {
		parts = append(parts, "{"+v.scn.Normalize().Key()+"}")
	}
	return "fleet|" + strings.Join(parts, ";")
}

// ShardScopes keys each shard by its own variant's scenario (plus the
// variant-local shard index): the scope of a variant is independent of
// its position and of the labels or siblings around it. A sweep point,
// a registered multi-variant experiment, and an ad-hoc `dgrid fleet`
// run of the same scenario therefore all share cached shards.
func (f fleetExperiment) ShardScopes(cfg core.Config) (scopes []string, locals []int) {
	for _, v := range f.resolve(cfg) {
		scope := "fleet|{" + v.scn.Key() + "}"
		n := v.scn.Shards()
		for local := 0; local < n; local++ {
			scopes = append(scopes, scope)
			locals = append(locals, local)
		}
	}
	return scopes, locals
}

func (f fleetExperiment) Shards(cfg core.Config) int {
	n := 0
	for _, v := range f.resolve(cfg) {
		n += v.scn.Shards()
	}
	return n
}

// locate maps a flat shard index to its (variant, local shard) cell.
func (f fleetExperiment) locate(vs []fleetVariant, shard int) (int, int, error) {
	for i, v := range vs {
		if shard < v.scn.Shards() {
			return i, shard, nil
		}
		shard -= v.scn.Shards()
	}
	return 0, 0, fmt.Errorf("shard index %d out of range", shard)
}

func (f fleetExperiment) RunShard(cfg core.Config, shard int) ([]byte, error) {
	vs := f.resolve(cfg)
	vi, local, err := f.locate(vs, shard)
	if err != nil {
		return nil, err
	}
	res, err := grid.RunShard(vs[vi].scn, local)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// fleetPayload is the merged JSON artifact: one fleet result per
// variant.
type fleetPayload struct {
	Name     string
	Variants []fleetVariantResult
}

type fleetVariantResult struct {
	Label string
	Fleet *grid.FleetResult
}

// Fold returns one grid.Merger per variant, fed shard results in flat
// shard order and released immediately, so a thousand-shard fleet
// holds one decoded shard at a time instead of all of them.
func (f fleetExperiment) Fold(cfg core.Config) (Fold, error) {
	return &fleetFold{exp: f, variantFold: newVariantFold(f.resolve(cfg))}, nil
}

// variantFold streams flat shard indices onto per-variant mergers —
// the absorb half shared by fleet experiments and sweeps (whose shard
// spaces both concatenate independent scenarios).
type variantFold struct {
	vs      []fleetVariant
	mergers []*grid.Merger
	next    int // next expected flat shard
	vi      int // variant currently absorbing
	local   int // next local shard within vs[vi]
}

func newVariantFold(vs []fleetVariant) variantFold {
	fd := variantFold{vs: vs, mergers: make([]*grid.Merger, len(vs))}
	for i, v := range vs {
		fd.mergers[i] = grid.NewMerger(v.scn)
	}
	return fd
}

func (fd *variantFold) Absorb(shard int, payload []byte) error {
	if shard != fd.next {
		return fmt.Errorf("fleet shard %d absorbed out of order (want %d)", shard, fd.next)
	}
	fd.next++
	for fd.vi < len(fd.vs) && fd.local >= fd.vs[fd.vi].scn.Shards() {
		fd.vi++
		fd.local = 0
	}
	if fd.vi >= len(fd.vs) {
		total := 0
		for _, v := range fd.vs {
			total += v.scn.Shards()
		}
		return fmt.Errorf("fleet shard %d beyond the variants' %d shards", shard, total)
	}
	sr := &grid.ShardResult{}
	if err := json.Unmarshal(payload, sr); err != nil {
		return fmt.Errorf("fleet shard %d payload: %w", shard, err)
	}
	if err := fd.mergers[fd.vi].Absorb(fd.local, sr); err != nil {
		return err
	}
	fd.local++
	return nil
}

// results completes every merger and returns one fleet result per
// variant.
func (fd *variantFold) results() ([]*grid.FleetResult, error) {
	frs := make([]*grid.FleetResult, len(fd.vs))
	for i := range fd.vs {
		fr, err := fd.mergers[i].Finish()
		if err != nil {
			return nil, err
		}
		frs[i] = fr
	}
	return frs, nil
}

// fleetFold renders the absorbed variants as the fleet report: one
// table per variant.
type fleetFold struct {
	exp fleetExperiment
	variantFold
}

func (fd *fleetFold) Finish() (*Outcome, error) {
	frs, err := fd.results()
	if err != nil {
		return nil, err
	}
	payload := fleetPayload{Name: fd.exp.name}
	var text, csv strings.Builder
	// One variant that migrates widens the CSV for every row — columns
	// must agree across the artifact — while a migration-free artifact
	// keeps its pre-migration byte-exact form.
	mig := anyMigrates(fd.vs)
	if mig {
		csv.WriteString(grid.MigCSVHeader())
	} else {
		csv.WriteString(grid.CSVHeader())
	}
	for i, v := range fd.vs {
		fr := frs[i]
		payload.Variants = append(payload.Variants, fleetVariantResult{Label: v.label, Fleet: fr})
		if text.Len() > 0 {
			text.WriteByte('\n')
		}
		if v.label != "" {
			fmt.Fprintf(&text, "— %s —\n", v.label)
		}
		text.WriteString(fr.Render())
		if mig {
			csv.WriteString(fr.MigCSVRows(v.label))
		} else {
			csv.WriteString(fr.CSVRows(v.label))
		}
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	return &Outcome{Name: fd.exp.name, Kind: KindFleet, Text: text.String(), CSVText: csv.String(), Raw: raw}, nil
}

func (f fleetExperiment) Merge(cfg core.Config, shards [][]byte) (*Outcome, error) {
	return foldShards(f, cfg, shards)
}

// anyMigrates reports whether any variant's scenario migrates
// checkpoints (variants are normalized at construction/resolve).
func anyMigrates(vs []fleetVariant) bool {
	for _, v := range vs {
		if v.scn.Migrates() {
			return true
		}
	}
	return false
}

// FleetScenario wraps a single ad-hoc scenario (the `dgrid fleet`
// command line) as an experiment. Equal scenarios produce equal cache
// scopes, so a CLI run and a registered scenario with the same
// parameters share shard results.
func FleetScenario(name, title string, scn grid.Scenario) Experiment {
	return fleetExperiment{
		name:     name,
		title:    title,
		variants: []fleetVariant{{scn: scn.Normalize()}},
	}
}

// fleetMachines is the registered scenarios' population: big enough to
// exercise sharding, small enough that `dgrid run all` stays
// interactive. It must not depend on the config — see fleetExperiment.
// Quick runs trim only the calibration windows.
const fleetMachines = 2048

func init() {
	Default.mustRegister(fleetExperiment{
		name:  "fleetchurn",
		title: "Fleet F1 — volunteer fleet under availability churn, per environment",
		variants: []fleetVariant{{scn: grid.Scenario{
			Machines: fleetMachines, Minutes: 120,
			Churn: true, Policy: "deadline", FaultyFrac: 0.02,
		}}},
	})
	policyVariants := func() []fleetVariant {
		var vs []fleetVariant
		for _, pol := range grid.Policies() {
			vs = append(vs, fleetVariant{
				label: "policy " + pol,
				scn: grid.Scenario{
					Machines: fleetMachines, Minutes: 120,
					Churn: true, Policy: pol, FaultyFrac: 0.02,
					Envs: []string{"vmplayer"},
				},
			})
		}
		return vs
	}
	Default.mustRegister(fleetExperiment{
		name:     "fleetpolicy",
		title:    "Fleet F2 — scheduling policies under churn (fifo vs deadline vs replication)",
		variants: policyVariants(),
	})
	migrationVariants := func() []fleetVariant {
		var vs []fleetVariant
		for _, mig := range grid.MigrationPolicies() {
			vs = append(vs, fleetVariant{
				label: "migration " + mig,
				scn: grid.Scenario{
					Machines: fleetMachines, Minutes: 120,
					Churn: true, Policy: "fifo", FaultyFrac: 0.02,
					Migration: mig,
					Envs:      []string{"vmplayer"},
				},
			})
		}
		return vs
	}
	Default.mustRegister(fleetExperiment{
		name:     "fleetmigration",
		title:    "Fleet F3 — checkpoint migration over the modeled network (none vs on-departure vs eager)",
		variants: migrationVariants(),
	})
}
