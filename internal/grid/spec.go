package grid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// SpecVersion is the schema version this build reads and writes.
// Serialized specs carry it explicitly, so a future field rename can
// re-interpret (or reject) old files instead of silently misreading
// them.
const SpecVersion = 1

// MaxSweepPoints bounds a spec's cartesian expansion. The cap exists to
// turn a typo'd range into an error instead of a million-scenario
// sweep.
const MaxSweepPoints = 4096

// Defaults that Scenario.Normalize cannot express, because the zero
// value is meaningful there (a fleet with no faulty hosts, a seed of
// zero). Spec axes distinguish "unset" (empty list) from an explicit
// zero, so the spec layer owns these.
const (
	DefaultSeed       uint64  = 1
	DefaultFaultyFrac float64 = 0.02
)

// Spec is a declarative, serializable description of a *family* of
// fleet scenarios: each axis is a list of values, and the family is
// the cartesian product over every axis. A one-value (or empty,
// meaning defaulted) axis pins that parameter; a multi-value axis is
// "swept". Specs round-trip through JSON, so a sweep is an artifact —
// reviewable, diffable, re-runnable — rather than a shell history
// entry.
//
// Seed, Quick, and Envs are scalars, not axes: the engine's cache keys
// carry seed and quick per run (sweeping them would need per-point key
// surgery), and the environment dimension is already crossed inside
// every scenario (a fleet reports per-environment rows).
type Spec struct {
	// Version is the spec schema version; ParseSpec rejects files
	// without it.
	Version int `json:"version"`
	// Name labels the sweep in artifacts.
	Name string `json:"name,omitempty"`
	// Seed drives every point; 0 means DefaultSeed.
	Seed uint64 `json:"seed,omitempty"`
	// Quick trims calibration windows on every point.
	Quick bool `json:"quick,omitempty"`
	// Envs is the environment set each point fleets (empty: the
	// paper's four).
	Envs []string `json:"envs,omitempty"`

	// The axes, in canonical expansion order (first axis outermost).
	Machines      []int     `json:"machines,omitempty"`
	Minutes       []int     `json:"minutes,omitempty"`
	Churn         []bool    `json:"churn,omitempty"`
	Policy        []string  `json:"policy,omitempty"`
	Replication   []int     `json:"replication,omitempty"`
	DeadlineMin   []float64 `json:"deadline_min,omitempty"`
	FaultyFrac    []float64 `json:"faulty,omitempty"`
	ChunksPerUnit []int     `json:"chunks_per_unit,omitempty"`
	Migration     []string  `json:"migration,omitempty"`
	Bandwidth     []float64 `json:"bandwidth,omitempty"`
}

// AxisValue is one axis's value at one sweep point, in the axis's
// canonical string form ("machines"/"512", "churn"/"on").
type AxisValue struct {
	Axis  string `json:"axis"`
	Value string `json:"value"`
}

// Point is one cell of a spec's cartesian grid: the concrete scenario
// plus the swept-axis values that select it (pinned axes are omitted —
// they are the same for every point).
type Point struct {
	Index    int
	Axes     []AxisValue
	Scenario Scenario
}

// Label renders the point's swept-axis values ("machines=512 churn=on
// policy=fifo"); empty when the spec sweeps nothing.
func (p Point) Label() string {
	var b strings.Builder
	for i, av := range p.Axes {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(av.Axis)
		b.WriteByte('=')
		b.WriteString(av.Value)
	}
	return b.String()
}

// axis is one named, sweepable Spec dimension: its length, canonical
// value strings, the Scenario field it sets, and its -set parser. The
// table keeps expansion, labelling, and overrides in lockstep — adding
// an axis is one entry here, not four switch arms.
type axis struct {
	name  string
	len   func(sp *Spec) int
	value func(sp *Spec, i int) string
	apply func(scn *Scenario, sp *Spec, i int)
	set   func(sp *Spec, list string) error
}

func specAxes() []axis {
	return []axis{
		{
			name:  "machines",
			len:   func(sp *Spec) int { return len(sp.Machines) },
			value: func(sp *Spec, i int) string { return strconv.Itoa(sp.Machines[i]) },
			apply: func(scn *Scenario, sp *Spec, i int) { scn.Machines = sp.Machines[i] },
			set: func(sp *Spec, list string) (err error) {
				sp.Machines, err = parseIntList(list)
				return
			},
		},
		{
			name:  "minutes",
			len:   func(sp *Spec) int { return len(sp.Minutes) },
			value: func(sp *Spec, i int) string { return strconv.Itoa(sp.Minutes[i]) },
			apply: func(scn *Scenario, sp *Spec, i int) { scn.Minutes = sp.Minutes[i] },
			set: func(sp *Spec, list string) (err error) {
				sp.Minutes, err = parseIntList(list)
				return
			},
		},
		{
			name:  "churn",
			len:   func(sp *Spec) int { return len(sp.Churn) },
			value: func(sp *Spec, i int) string { return onOff(sp.Churn[i]) },
			apply: func(scn *Scenario, sp *Spec, i int) { scn.Churn = sp.Churn[i] },
			set: func(sp *Spec, list string) (err error) {
				sp.Churn, err = parseBoolList(list)
				return
			},
		},
		{
			name:  "policy",
			len:   func(sp *Spec) int { return len(sp.Policy) },
			value: func(sp *Spec, i int) string { return sp.Policy[i] },
			apply: func(scn *Scenario, sp *Spec, i int) { scn.Policy = sp.Policy[i] },
			set: func(sp *Spec, list string) error {
				sp.Policy = parseStringList(list)
				return nil
			},
		},
		{
			name:  "replication",
			len:   func(sp *Spec) int { return len(sp.Replication) },
			value: func(sp *Spec, i int) string { return strconv.Itoa(sp.Replication[i]) },
			apply: func(scn *Scenario, sp *Spec, i int) { scn.Replication = sp.Replication[i] },
			set: func(sp *Spec, list string) (err error) {
				sp.Replication, err = parseIntList(list)
				return
			},
		},
		{
			name:  "deadline_min",
			len:   func(sp *Spec) int { return len(sp.DeadlineMin) },
			value: func(sp *Spec, i int) string { return formatFloat(sp.DeadlineMin[i]) },
			apply: func(scn *Scenario, sp *Spec, i int) { scn.DeadlineMin = sp.DeadlineMin[i] },
			set: func(sp *Spec, list string) (err error) {
				sp.DeadlineMin, err = parseFloatList(list)
				return
			},
		},
		{
			name:  "faulty",
			len:   func(sp *Spec) int { return len(sp.FaultyFrac) },
			value: func(sp *Spec, i int) string { return formatFloat(sp.FaultyFrac[i]) },
			apply: func(scn *Scenario, sp *Spec, i int) { scn.FaultyFrac = sp.FaultyFrac[i] },
			set: func(sp *Spec, list string) (err error) {
				sp.FaultyFrac, err = parseFloatList(list)
				return
			},
		},
		{
			name:  "chunks_per_unit",
			len:   func(sp *Spec) int { return len(sp.ChunksPerUnit) },
			value: func(sp *Spec, i int) string { return strconv.Itoa(sp.ChunksPerUnit[i]) },
			apply: func(scn *Scenario, sp *Spec, i int) { scn.ChunksPerUnit = sp.ChunksPerUnit[i] },
			set: func(sp *Spec, list string) (err error) {
				sp.ChunksPerUnit, err = parseIntList(list)
				return
			},
		},
		{
			name:  "migration",
			len:   func(sp *Spec) int { return len(sp.Migration) },
			value: func(sp *Spec, i int) string { return sp.Migration[i] },
			apply: func(scn *Scenario, sp *Spec, i int) { scn.Migration = sp.Migration[i] },
			set: func(sp *Spec, list string) error {
				sp.Migration = parseStringList(list)
				return nil
			},
		},
		{
			name:  "bandwidth",
			len:   func(sp *Spec) int { return len(sp.Bandwidth) },
			value: func(sp *Spec, i int) string { return formatFloat(sp.Bandwidth[i]) },
			apply: func(scn *Scenario, sp *Spec, i int) { scn.BandwidthMbps = sp.Bandwidth[i] },
			set: func(sp *Spec, list string) (err error) {
				sp.Bandwidth, err = parseFloatList(list)
				return
			},
		},
	}
}

// AxisNames lists every sweepable axis, in expansion order.
func AxisNames() []string {
	axs := specAxes()
	names := make([]string, len(axs))
	for i, a := range axs {
		names[i] = a.name
	}
	return names
}

// Normalize fills unset (empty) axes with one default value each and
// pins the scalars, and returns the result. Like Scenario.Normalize it
// is idempotent.
func (sp Spec) Normalize() Spec {
	if sp.Version == 0 {
		sp.Version = SpecVersion
	}
	if sp.Seed == 0 {
		sp.Seed = DefaultSeed
	}
	def := Scenario{}.Normalize()
	if len(sp.Envs) == 0 {
		sp.Envs = def.Envs
	}
	if len(sp.Machines) == 0 {
		sp.Machines = []int{def.Machines}
	}
	if len(sp.Minutes) == 0 {
		sp.Minutes = []int{def.Minutes}
	}
	if len(sp.Churn) == 0 {
		sp.Churn = []bool{false}
	}
	if len(sp.Policy) == 0 {
		sp.Policy = []string{def.Policy}
	}
	if len(sp.Replication) == 0 {
		sp.Replication = []int{def.Replication}
	}
	if len(sp.DeadlineMin) == 0 {
		sp.DeadlineMin = []float64{def.DeadlineMin}
	}
	if len(sp.FaultyFrac) == 0 {
		sp.FaultyFrac = []float64{DefaultFaultyFrac}
	}
	if len(sp.ChunksPerUnit) == 0 {
		sp.ChunksPerUnit = []int{def.ChunksPerUnit}
	}
	if len(sp.Migration) == 0 {
		sp.Migration = []string{def.Migration}
	}
	if len(sp.Bandwidth) == 0 {
		sp.Bandwidth = []float64{def.BandwidthMbps}
	}
	return sp
}

// Migrates reports whether any point of the (normalized) spec migrates
// checkpoints — the switch for the sweep's extra table/CSV columns.
func (sp Spec) Migrates() bool {
	for _, m := range sp.Normalize().Migration {
		if m != "none" {
			return true
		}
	}
	return false
}

// NPoints reports the size of the cartesian grid, capped at
// MaxSweepPoints+1 (so callers can detect "too many" without overflow).
func (sp Spec) NPoints() int {
	sp = sp.Normalize()
	total := 1
	for _, a := range specAxes() {
		total *= a.len(&sp)
		if total > MaxSweepPoints {
			return MaxSweepPoints + 1
		}
	}
	return total
}

// SweptAxes names the axes with more than one value, in expansion
// order — the key columns of the merged sweep table.
func (sp Spec) SweptAxes() []string {
	sp = sp.Normalize()
	var names []string
	for _, a := range specAxes() {
		if a.len(&sp) > 1 {
			names = append(names, a.name)
		}
	}
	return names
}

// Points expands the spec into its cartesian grid, in canonical order:
// axes nest in AxisNames order with the last axis spinning fastest, so
// the point list (and everything keyed by it) is independent of how
// the spec was built. Widening one axis preserves every existing
// point's scenario — only its Index moves, which is why the engine
// keys caches by scenario, not index.
func (sp Spec) Points() ([]Point, error) {
	sp = sp.Normalize()
	if n := sp.NPoints(); n > MaxSweepPoints {
		return nil, fmt.Errorf("grid: spec expands to more than %d points", MaxSweepPoints)
	}
	axs := specAxes()
	dims := make([]int, len(axs))
	total := 1
	for i, a := range axs {
		dims[i] = a.len(&sp)
		total *= dims[i]
	}
	pts := make([]Point, 0, total)
	idx := make([]int, len(axs))
	for k := 0; k < total; k++ {
		scn := Scenario{Seed: sp.Seed, Quick: sp.Quick, Envs: sp.Envs}
		var avs []AxisValue
		for i, a := range axs {
			a.apply(&scn, &sp, idx[i])
			if dims[i] > 1 {
				avs = append(avs, AxisValue{Axis: a.name, Value: a.value(&sp, idx[i])})
			}
		}
		pts = append(pts, Point{Index: k, Axes: avs, Scenario: scn.Normalize()})
		for i := len(idx) - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < dims[i] {
				break
			}
			idx[i] = 0
		}
	}
	return pts, nil
}

// Validate reports the first error in the spec: an unsupported
// version, a non-positive axis value that Scenario.Normalize would
// silently replace, an oversized grid, or an invalid point (labelled
// with its swept-axis values).
func (sp Spec) Validate() error {
	sp = sp.Normalize()
	if sp.Version != SpecVersion {
		return fmt.Errorf("grid: unsupported spec version %d (this build reads version %d)", sp.Version, SpecVersion)
	}
	// Positivity checks come first: Scenario.Normalize treats <= 0 as
	// "unset" and substitutes defaults, which is right for a zero
	// value but wrong for an explicit list entry.
	for _, ax := range []struct {
		name string
		vals []int
	}{
		{"machines", sp.Machines},
		{"minutes", sp.Minutes},
		{"replication", sp.Replication},
		{"chunks_per_unit", sp.ChunksPerUnit},
	} {
		for _, v := range ax.vals {
			if v < 1 {
				return fmt.Errorf("grid: spec axis %s value %d must be at least 1", ax.name, v)
			}
		}
	}
	for _, v := range sp.DeadlineMin {
		if v <= 0 {
			return fmt.Errorf("grid: spec axis deadline_min value %g must be positive", v)
		}
	}
	for _, v := range sp.Bandwidth {
		if v <= 0 {
			return fmt.Errorf("grid: spec axis bandwidth value %g must be positive", v)
		}
	}
	pts, err := sp.Points()
	if err != nil {
		return err
	}
	for _, pt := range pts {
		if err := pt.Scenario.Validate(); err != nil {
			if lbl := pt.Label(); lbl != "" {
				return fmt.Errorf("spec point [%s]: %w", lbl, err)
			}
			return err
		}
	}
	return nil
}

// Set applies one "axis=v1,v2,..." override (the CLI's -set flag) to
// the spec, replacing that axis's value list. Integer axes also accept
// ranges: "256..1024*2" doubles from 256 to 1024, "1..4" steps by one,
// "0..90+30" steps by 30. The scalars seed, quick, envs, and name are
// settable the same way.
func (sp *Spec) Set(assign string) error {
	name, list, ok := strings.Cut(assign, "=")
	if !ok {
		return fmt.Errorf("grid: -set %q: want axis=value[,value...]", assign)
	}
	name = strings.TrimSpace(name)
	switch name {
	case "seed":
		v, err := strconv.ParseUint(strings.TrimSpace(list), 10, 64)
		if err != nil {
			return fmt.Errorf("grid: -set seed: %q is not an unsigned integer", list)
		}
		sp.Seed = v
		return nil
	case "quick":
		v, err := parseBool(strings.TrimSpace(list))
		if err != nil {
			return fmt.Errorf("grid: -set quick: %w", err)
		}
		sp.Quick = v
		return nil
	case "envs":
		sp.Envs = parseStringList(list)
		return nil
	case "name":
		sp.Name = strings.TrimSpace(list)
		return nil
	}
	for _, a := range specAxes() {
		if a.name == name {
			if err := a.set(sp, list); err != nil {
				return fmt.Errorf("grid: -set %s: %w", name, err)
			}
			return nil
		}
	}
	return fmt.Errorf("grid: unknown axis %q (axes: %s; scalars: seed, quick, envs, name)",
		name, strings.Join(AxisNames(), ", "))
}

// ParseSpec decodes a serialized spec, rejecting unknown fields (a
// misspelled axis must not silently pin its default) and files without
// a version.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("grid: parsing spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("grid: parsing spec: trailing data after the JSON document")
	}
	if sp.Version == 0 {
		return Spec{}, fmt.Errorf("grid: spec has no version (current: %d)", SpecVersion)
	}
	// An empty list means "unset", as an absent field does, and JSON
	// omits both; holding it as nil keeps ParseSpec(sp.JSON()) == sp.
	sp.Envs = nilIfEmpty(sp.Envs)
	sp.Machines = nilIfEmpty(sp.Machines)
	sp.Minutes = nilIfEmpty(sp.Minutes)
	sp.Churn = nilIfEmpty(sp.Churn)
	sp.Policy = nilIfEmpty(sp.Policy)
	sp.Replication = nilIfEmpty(sp.Replication)
	sp.DeadlineMin = nilIfEmpty(sp.DeadlineMin)
	sp.FaultyFrac = nilIfEmpty(sp.FaultyFrac)
	sp.ChunksPerUnit = nilIfEmpty(sp.ChunksPerUnit)
	sp.Migration = nilIfEmpty(sp.Migration)
	sp.Bandwidth = nilIfEmpty(sp.Bandwidth)
	return sp, nil
}

func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// JSON renders the spec as indented JSON — the round-trip partner of
// ParseSpec. (Not a MarshalText/MarshalJSON method: Spec must keep its
// plain struct encoding when embedded in larger payloads.)
func (sp Spec) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// formatFloat is the canonical float rendering for labels and CSV
// cells: shortest form that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// parseIntList parses "a,b,c" where each item is an integer or a range
// "lo..hi" with an optional step suffix: "*k" multiplies (geometric),
// "+k" adds; the default step is +1. Every range is bounded by
// MaxSweepPoints items, so a typo cannot expand without limit.
func parseIntList(list string) ([]int, error) {
	var out []int
	for _, item := range strings.Split(list, ",") {
		item = strings.TrimSpace(item)
		lo, hi, step, mul, err := parseRange(item)
		if err != nil {
			return nil, err
		}
		for v := lo; ; {
			out = append(out, v)
			if len(out) > MaxSweepPoints {
				return nil, fmt.Errorf("range %q expands past %d values", item, MaxSweepPoints)
			}
			// Stop before a step that would pass hi. Neither test can
			// overflow: v*step > hi iff v > hi/step (v and step are
			// positive), and the distance hi-v fits a uint even where
			// it does not fit an int.
			if mul {
				if v > hi/step {
					break
				}
				v *= step
			} else {
				if uint(hi)-uint(v) < uint(step) {
					break
				}
				v += step
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty value list")
	}
	return out, nil
}

// parseRange parses one integer item: "n" (lo==hi), or "lo..hi",
// "lo..hi*k", "lo..hi+k".
func parseRange(item string) (lo, hi, step int, mul bool, err error) {
	loS, rest, isRange := strings.Cut(item, "..")
	if !isRange {
		v, err := strconv.Atoi(item)
		if err != nil {
			return 0, 0, 0, false, fmt.Errorf("%q is not an integer", item)
		}
		return v, v, 1, false, nil
	}
	step = 1
	hiS := rest
	if i := strings.IndexAny(rest, "*+"); i >= 0 {
		hiS = rest[:i]
		mul = rest[i] == '*'
		if step, err = strconv.Atoi(rest[i+1:]); err != nil {
			return 0, 0, 0, false, fmt.Errorf("range %q: step %q is not an integer", item, rest[i+1:])
		}
	}
	if lo, err = strconv.Atoi(loS); err != nil {
		return 0, 0, 0, false, fmt.Errorf("range %q: %q is not an integer", item, loS)
	}
	if hi, err = strconv.Atoi(hiS); err != nil {
		return 0, 0, 0, false, fmt.Errorf("range %q: %q is not an integer", item, hiS)
	}
	if hi < lo {
		return 0, 0, 0, false, fmt.Errorf("range %q is descending", item)
	}
	if mul && (step < 2 || lo < 1) {
		return 0, 0, 0, false, fmt.Errorf("range %q: a *k step needs k >= 2 and a positive start", item)
	}
	if !mul && step < 1 {
		return 0, 0, 0, false, fmt.Errorf("range %q: a +k step needs k >= 1", item)
	}
	return lo, hi, step, mul, nil
}

func parseFloatList(list string) ([]float64, error) {
	var out []float64
	for _, item := range strings.Split(list, ",") {
		item = strings.TrimSpace(item)
		v, err := strconv.ParseFloat(item, 64)
		if err != nil {
			return nil, fmt.Errorf("%q is not a number", item)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseBoolList(list string) ([]bool, error) {
	var out []bool
	for _, item := range strings.Split(list, ",") {
		v, err := parseBool(strings.TrimSpace(item))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseBool(s string) (bool, error) {
	switch s {
	case "on", "true", "1", "yes":
		return true, nil
	case "off", "false", "0", "no":
		return false, nil
	}
	return false, fmt.Errorf("%q is not a boolean (on/off, true/false)", s)
}

func parseStringList(list string) []string {
	var out []string
	for _, item := range strings.Split(list, ",") {
		out = append(out, strings.TrimSpace(item))
	}
	return out
}
