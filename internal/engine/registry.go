package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"vmdg/internal/core"
)

// Registry is a named collection of experiments. The zero value is not
// usable; construct with NewRegistry. Registration order is preserved —
// it is the order `run all` executes and reports in.
type Registry struct {
	mu    sync.RWMutex
	byKey map[string]Experiment
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]Experiment{}}
}

// key canonicalizes a name for case-insensitive lookup ("figFP" and
// "figfp" are the same experiment).
func key(name string) string { return strings.ToLower(name) }

// Register adds an experiment. Names are case-insensitive and must be
// unique within the registry.
func (r *Registry) Register(e Experiment) error {
	if e.Name() == "" {
		return fmt.Errorf("engine: experiment with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := key(e.Name())
	if _, dup := r.byKey[k]; dup {
		return fmt.Errorf("engine: duplicate experiment %q", e.Name())
	}
	r.byKey[k] = e
	r.order = append(r.order, k)
	return nil
}

// mustRegister is Register for the built-in catalog, whose names are
// statically unique.
func (r *Registry) mustRegister(e Experiment) {
	if err := r.Register(e); err != nil {
		panic(err)
	}
}

// Lookup resolves a name, case-insensitively.
func (r *Registry) Lookup(name string) (Experiment, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.byKey[key(name)]
	return e, ok
}

// Names returns every experiment name in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	for i, k := range r.order {
		out[i] = r.byKey[k].Name()
	}
	return out
}

// Experiments returns every experiment in registration order.
func (r *Registry) Experiments() []Experiment {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Experiment, len(r.order))
	for i, k := range r.order {
		out[i] = r.byKey[k]
	}
	return out
}

// ByKind returns the experiments of the given kinds, in registration
// order.
func (r *Registry) ByKind(kinds ...Kind) []Experiment {
	var out []Experiment
	for _, e := range r.Experiments() {
		for _, k := range kinds {
			if e.Kind() == k {
				out = append(out, e)
				break
			}
		}
	}
	return out
}

// Select resolves a comma-separated experiment list; "all" (or "")
// selects the whole registry. Unknown names report the valid set.
func (r *Registry) Select(names string) ([]Experiment, error) {
	if names == "" || key(names) == "all" {
		return r.Experiments(), nil
	}
	var out []Experiment
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		e, ok := r.Lookup(name)
		if !ok {
			valid := r.Names()
			sort.Strings(valid)
			return nil, fmt.Errorf("engine: unknown experiment %q (valid: all, %s)",
				name, strings.Join(valid, ", "))
		}
		out = append(out, e)
	}
	return out, nil
}

// Default is the process-wide registry, populated with the built-in
// catalog (the nine figures plus ablations, sensitivities, and
// extensions) by this package's init.
var Default = NewRegistry()

// TotalShards sums the shard counts of exps under cfg — the pool's work
// backlog, used for progress reporting.
func TotalShards(cfg core.Config, exps []Experiment) int {
	cfg = normalize(cfg)
	n := 0
	for _, e := range exps {
		n += e.Shards(cfg)
	}
	return n
}
