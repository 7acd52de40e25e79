package engine

import (
	"encoding/json"
	"fmt"
	"strings"

	"vmdg/internal/core"
	"vmdg/internal/report"
)

// This file wires the reproduction's generators from internal/core into
// the Default registry: the nine paper figures (through their shard
// decompositions) plus the ablation, sensitivity, and extension
// experiments.

// shardedFigure adapts a core.Sharded figure definition to Experiment.
type shardedFigure struct {
	def core.Sharded
}

func (f shardedFigure) Name() string               { return f.def.ID }
func (f shardedFigure) Title() string              { return f.def.Title }
func (f shardedFigure) Kind() Kind                 { return KindFigure }
func (f shardedFigure) Scope() string              { return f.def.CacheScope() }
func (f shardedFigure) Shards(cfg core.Config) int { return f.def.Shards(cfg) }

func (f shardedFigure) RunShard(cfg core.Config, shard int) ([]byte, error) {
	p, err := f.def.Run(cfg, shard)
	if err != nil {
		return nil, err
	}
	return json.Marshal(p)
}

// Fold collects the shard payloads for Merge: assembling a figure needs
// all of them at once, as on the serial core path.
func (f shardedFigure) Fold(cfg core.Config) (Fold, error) { return collect(cfg, f.Merge), nil }

func (f shardedFigure) Merge(cfg core.Config, shards [][]byte) (*Outcome, error) {
	payloads := make([]core.ShardPayload, len(shards))
	for i, b := range shards {
		if err := json.Unmarshal(b, &payloads[i]); err != nil {
			return nil, fmt.Errorf("shard %d payload: %w", i, err)
		}
	}
	res, err := f.def.Assemble(cfg, payloads)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return &Outcome{Name: f.def.ID, Kind: KindFigure, Result: res, Raw: raw}, nil
}

// singleExp adapts a one-shot generator (the ablations and extensions,
// which the paper reports as single scenarios rather than bar sweeps).
type singleExp struct {
	name, title string
	kind        Kind
	run         func(core.Config) (any, error)
	// render folds the single shard's payload into the outcome's Result
	// and/or Text.
	render func(cfg core.Config, raw []byte, o *Outcome) error
}

func (e singleExp) Name() string           { return e.name }
func (e singleExp) Title() string          { return e.title }
func (e singleExp) Kind() Kind             { return e.kind }
func (e singleExp) Scope() string          { return e.name }
func (e singleExp) Shards(core.Config) int { return 1 }

func (e singleExp) RunShard(cfg core.Config, shard int) ([]byte, error) {
	if shard != 0 {
		return nil, fmt.Errorf("single-shard experiment got shard %d", shard)
	}
	v, err := e.run(cfg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

func (e singleExp) Fold(cfg core.Config) (Fold, error) { return collect(cfg, e.Merge), nil }

func (e singleExp) Merge(cfg core.Config, shards [][]byte) (*Outcome, error) {
	o := &Outcome{Name: e.name, Kind: e.kind, Raw: shards[0]}
	if err := e.render(cfg, shards[0], o); err != nil {
		return nil, err
	}
	return o, nil
}

// decode unmarshals a shard payload into v with a uniform error shape.
func decode(raw []byte, v any) error {
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("payload: %w", err)
	}
	return nil
}

// natQueuePayload carries the NAT queue-structure ablation pair.
type natQueuePayload struct {
	SharedMbps, SplitMbps float64
}

// Default sweep grids for the sensitivity experiments; the calibrated
// values sit mid-grid so the sweeps bracket them.
var (
	busContentionKs = []float64{0, 0.225, 0.45, 0.675, 0.9}
	serviceDuties   = []float64{0.15, 0.30, 0.45, 0.60, 0.68}
)

// seriesText renders a swept report.Series as the outcome text.
func seriesText(raw []byte, o *Outcome) error {
	var s report.Series
	if err := decode(raw, &s); err != nil {
		return err
	}
	o.Text = s.Render()
	return nil
}

func init() {
	for _, def := range core.ShardedFigures() {
		Default.mustRegister(shardedFigure{def: def})
	}

	Default.mustRegister(singleExp{
		name:  "timesync",
		title: "Ablation A1 — external UDP timing vs the drifting guest clock (§2)",
		kind:  KindAblation,
		run:   func(cfg core.Config) (any, error) { return core.TimesyncAblation(cfg) },
		render: func(_ core.Config, raw []byte, o *Outcome) error {
			var ts core.TimesyncResult
			if err := decode(raw, &ts); err != nil {
				return err
			}
			var b strings.Builder
			fmt.Fprintf(&b, "Ablation A1 — external UDP timing (§2 methodology)\n")
			fmt.Fprintf(&b, "  work unit true duration : %8.3f s\n", ts.TrueSeconds)
			fmt.Fprintf(&b, "  guest-clock measurement : %8.3f s (error %.1f%%)\n", ts.GuestSeconds, ts.GuestErr*100)
			fmt.Fprintf(&b, "  UDP-corrected           : %8.3f s (error %.2f%%)\n", ts.CorrectedSeconds, ts.CorrectedErr*100)
			o.Text = b.String()
			return nil
		},
	})

	Default.mustRegister(singleExp{
		name:  "migration",
		title: "Ablation A3 — checkpoint, migrate, and resume a work unit (§1)",
		kind:  KindAblation,
		run:   func(cfg core.Config) (any, error) { return core.MigrationAblation(cfg) },
		render: func(_ core.Config, raw []byte, o *Outcome) error {
			var mig core.MigrationResult
			if err := decode(raw, &mig); err != nil {
				return err
			}
			var b strings.Builder
			fmt.Fprintf(&b, "Ablation A3 — checkpoint and migration (§1)\n")
			fmt.Fprintf(&b, "  chunks done on machine A: %d\n", mig.ChunksBeforeMigration)
			fmt.Fprintf(&b, "  chunks restored on B    : %d\n", mig.ChunksAfterRestore)
			fmt.Fprintf(&b, "  checkpoint blob         : %d bytes (overlay %d bytes)\n", mig.CheckpointBytes, mig.OverlayBytes)
			fmt.Fprintf(&b, "  unit completed on B     : %v\n", mig.UnitCompleted)
			o.Text = b.String()
			return nil
		},
	})

	Default.mustRegister(singleExp{
		name:  "memory",
		title: "Ablation — committed host RAM per environment (§4.2.1)",
		kind:  KindAblation,
		run:   func(core.Config) (any, error) { return core.MemoryFootprint() },
		render: func(_ core.Config, raw []byte, o *Outcome) error {
			var res core.Result
			if err := decode(raw, &res); err != nil {
				return err
			}
			o.Result = &res
			return nil
		},
	})

	Default.mustRegister(singleExp{
		name:  "buscontention",
		title: "Sensitivity — shared-bus factor behind the 180% two-thread ceiling",
		kind:  KindSensitivity,
		run: func(cfg core.Config) (any, error) {
			return core.BusContentionSweep(cfg, busContentionKs)
		},
		render: func(_ core.Config, raw []byte, o *Outcome) error { return seriesText(raw, o) },
	})

	Default.mustRegister(singleExp{
		name:  "serviceduty",
		title: "Sensitivity — VMM host-service duty separating VmPlayer's intrusiveness",
		kind:  KindSensitivity,
		run: func(cfg core.Config) (any, error) {
			return core.ServiceDutySweep(cfg, serviceDuties)
		},
		render: func(_ core.Config, raw []byte, o *Outcome) error { return seriesText(raw, o) },
	})

	Default.mustRegister(singleExp{
		name:  "natqueue",
		title: "Sensitivity — shared NAT proxy queue vs split per-direction queues",
		kind:  KindSensitivity,
		run: func(cfg core.Config) (any, error) {
			shared, split, err := core.NATQueueAblation(cfg)
			if err != nil {
				return nil, err
			}
			return natQueuePayload{SharedMbps: shared, SplitMbps: split}, nil
		},
		render: func(_ core.Config, raw []byte, o *Outcome) error {
			var p natQueuePayload
			if err := decode(raw, &p); err != nil {
				return err
			}
			o.Text = fmt.Sprintf("Sensitivity — NAT queue structure\n  shared proxy queue: %.2f Mbps\n  split queues      : %.2f Mbps\n",
				p.SharedMbps, p.SplitMbps)
			return nil
		},
	})

	Default.mustRegister(singleExp{
		name:  "udploss",
		title: "Extension X1 — iperf -u: 10 Mbps UDP flood per network path",
		kind:  KindExtension,
		run:   func(cfg core.Config) (any, error) { return core.UDPLossExperiment(cfg) },
		render: func(_ core.Config, raw []byte, o *Outcome) error {
			var results []core.UDPLossResult
			if err := decode(raw, &results); err != nil {
				return err
			}
			var b strings.Builder
			fmt.Fprintf(&b, "Extension X1 — iperf -u: 10 Mbps UDP flood per network path\n")
			for _, r := range results {
				fmt.Fprintf(&b, "  %-14s delivered %6.2f Mbps  loss %5.1f%%  drops %d\n",
					r.Env, r.DeliveredMbps, r.LossFraction*100, r.Drops)
			}
			o.Text = b.String()
			return nil
		},
	})

	Default.mustRegister(singleExp{
		name:  "confinement",
		title: "Extension — VM core confinement (work-conservation negative result)",
		kind:  KindExtension,
		run:   func(cfg core.Config) (any, error) { return core.ConfinementExperiment(cfg) },
		render: func(_ core.Config, raw []byte, o *Outcome) error {
			var conf core.ConfinementResult
			if err := decode(raw, &conf); err != nil {
				return err
			}
			o.Text = fmt.Sprintf("Extension — VM core confinement (work-conservation negative result)\n  host 7z 2-thread availability: unpinned %.1f%%, pinned %.1f%%\n",
				conf.UnpinnedPct, conf.PinnedPct)
			return nil
		},
	})

	Default.mustRegister(singleExp{
		name:  "multivm",
		title: "Extension A5 — one VM instance per core over a shared base image (§5)",
		kind:  KindExtension,
		run:   func(cfg core.Config) (any, error) { return core.MultiVMExperiment(cfg) },
		render: func(_ core.Config, raw []byte, o *Outcome) error {
			var multi core.MultiVMResult
			if err := decode(raw, &multi); err != nil {
				return err
			}
			o.Text = fmt.Sprintf("Extension A5 — one VM instance per core (shared base image)\n  work units: 1 VM = %d, 2 VMs = %d (scaling %.2fx)\n",
				multi.UnitsOneVM, multi.UnitsTwoVMs, multi.Scaling)
			return nil
		},
	})
}
