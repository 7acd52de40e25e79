package grid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
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

// defaultScenario is the point an empty spec describes: what every
// unset axis takes. The spec layer adds the faulty default that
// Scenario.Normalize cannot express.
var defaultScenario = Scenario{FaultyFrac: DefaultFaultyFrac}.Normalize()

// axis is one named, sweepable Spec dimension. newAxis derives every
// per-axis operation from the axis's Spec list and Scenario field, so
// specAxes is the one place an axis is declared: expansion, labels,
// -set overrides, defaults, validation and parsing all read it.
type axis struct {
	name  string
	len   func(sp *Spec) int
	value func(sp *Spec, i int) string
	apply func(scn *Scenario, sp *Spec, i int)
	set   func(sp *Spec, list string) error
	// empty replaces an empty list with from's value, or with nil when
	// from is nil.
	empty func(sp *Spec, from *Scenario)
	// check rejects an explicit entry that breaks the axis's rule.
	check func(sp *Spec) error
}

// newAxis builds the axis named name over the Spec list and Scenario
// field its accessors address. format renders one value canonically
// and parse reads a -set list. rule, if non-nil, returns why a value is
// invalid, or "" for a valid one.
func newAxis[T any](name string, list func(*Spec) *[]T, field func(*Scenario) *T,
	format func(T) string, parse func(string) ([]T, error), rule func(T) string) axis {
	return axis{
		name:  name,
		len:   func(sp *Spec) int { return len(*list(sp)) },
		value: func(sp *Spec, i int) string { return format((*list(sp))[i]) },
		apply: func(scn *Scenario, sp *Spec, i int) { *field(scn) = (*list(sp))[i] },
		set: func(sp *Spec, s string) (err error) {
			*list(sp), err = parse(s)
			return err
		},
		empty: func(sp *Spec, from *Scenario) {
			if l := list(sp); len(*l) == 0 {
				*l = nil
				if from != nil {
					*l = []T{*field(from)}
				}
			}
		},
		check: func(sp *Spec) error {
			if rule == nil {
				return nil
			}
			for _, v := range *list(sp) {
				if why := rule(v); why != "" {
					return fmt.Errorf("grid: spec axis %s value %v %s", name, v, why)
				}
			}
			return nil
		},
	}
}

// specAxes lists the axes in canonical expansion order (first axis
// outermost). The rules reject explicit values that Scenario.Normalize
// would read as unset and silently replace with its default.
var specAxes = []axis{
	newAxis("machines", func(sp *Spec) *[]int { return &sp.Machines },
		func(s *Scenario) *int { return &s.Machines }, strconv.Itoa, parseIntList, atLeastOne),
	newAxis("minutes", func(sp *Spec) *[]int { return &sp.Minutes },
		func(s *Scenario) *int { return &s.Minutes }, strconv.Itoa, parseIntList, atLeastOne),
	newAxis("churn", func(sp *Spec) *[]bool { return &sp.Churn },
		func(s *Scenario) *bool { return &s.Churn }, onOff, parseBoolList, nil),
	newAxis("policy", func(sp *Spec) *[]string { return &sp.Policy },
		func(s *Scenario) *string { return &s.Policy }, verbatim, parseStrings, nil),
	newAxis("replication", func(sp *Spec) *[]int { return &sp.Replication },
		func(s *Scenario) *int { return &s.Replication }, strconv.Itoa, parseIntList, atLeastOne),
	newAxis("deadline_min", func(sp *Spec) *[]float64 { return &sp.DeadlineMin },
		func(s *Scenario) *float64 { return &s.DeadlineMin }, formatFloat, parseFloatList, positive),
	newAxis("faulty", func(sp *Spec) *[]float64 { return &sp.FaultyFrac },
		func(s *Scenario) *float64 { return &s.FaultyFrac }, formatFloat, parseFloatList, nil),
	newAxis("chunks_per_unit", func(sp *Spec) *[]int { return &sp.ChunksPerUnit },
		func(s *Scenario) *int { return &s.ChunksPerUnit }, strconv.Itoa, parseIntList, atLeastOne),
	newAxis("migration", func(sp *Spec) *[]string { return &sp.Migration },
		func(s *Scenario) *string { return &s.Migration }, verbatim, parseStrings, nil),
	newAxis("bandwidth", func(sp *Spec) *[]float64 { return &sp.Bandwidth },
		func(s *Scenario) *float64 { return &s.BandwidthMbps }, formatFloat, parseFloatList, positive),
}

func atLeastOne(v int) string {
	if v < 1 {
		return "must be at least 1"
	}
	return ""
}

// positive lets NaN through: Scenario.Validate rejects it with the
// point's label.
func positive(v float64) string {
	if v <= 0 {
		return "must be positive"
	}
	return ""
}

// AxisNames lists every sweepable axis, in expansion order.
func AxisNames() []string {
	names := make([]string, len(specAxes))
	for i, a := range specAxes {
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
	if len(sp.Envs) == 0 {
		sp.Envs = slices.Clone(defaultScenario.Envs)
	}
	for _, a := range specAxes {
		a.empty(&sp, &defaultScenario)
	}
	return sp
}

// Migrates reports whether any point of the (normalized) spec migrates
// checkpoints — the switch for the sweep's extra table/CSV columns.
func (sp Spec) Migrates() bool {
	return slices.ContainsFunc(sp.Migration, func(m string) bool { return m != "none" })
}

// NPoints reports the size of the cartesian grid, capped at
// MaxSweepPoints+1 (so callers can detect "too many" without overflow).
func (sp Spec) NPoints() int {
	sp = sp.Normalize()
	total := 1
	for _, a := range specAxes {
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
	for _, a := range specAxes {
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
	dims := make([]int, len(specAxes))
	total := 1
	for i, a := range specAxes {
		dims[i] = a.len(&sp)
		if total *= dims[i]; total > MaxSweepPoints {
			return nil, fmt.Errorf("grid: spec expands to more than %d points", MaxSweepPoints)
		}
	}
	pts := make([]Point, 0, total)
	idx := make([]int, len(specAxes))
	for k := 0; k < total; k++ {
		scn := Scenario{Seed: sp.Seed, Quick: sp.Quick, Envs: sp.Envs}
		var avs []AxisValue
		for i, a := range specAxes {
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
	// The axis rules come first: each point's Scenario.Normalize would
	// replace an explicit non-positive entry with its default.
	for _, a := range specAxes {
		if err := a.check(&sp); err != nil {
			return err
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
	for _, a := range specAxes {
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
	// More() would miss a stray closing delimiter such as the second
	// brace of {"version":1}}: only the end of the input may follow.
	if dec.Decode(new(json.RawMessage)) != io.EOF {
		return Spec{}, fmt.Errorf("grid: parsing spec: trailing data after the JSON document")
	}
	if sp.Version == 0 {
		return Spec{}, fmt.Errorf("grid: spec has no version (current: %d)", SpecVersion)
	}
	// An empty list means "unset", as an absent field does, and JSON
	// omits both; holding it as nil keeps ParseSpec(sp.JSON()) == sp.
	if len(sp.Envs) == 0 {
		sp.Envs = nil
	}
	for _, a := range specAxes {
		a.empty(&sp, nil)
	}
	return sp, nil
}

// ResolveSpec builds the normalized, validated spec that `dgrid sweep`
// and the daemon's POST /v1/sweeps describe, in their one precedence:
// the document doc, then the sets assignments in order, then the
// scalars — a nonzero seed replaces the document's, and quick set
// turns quick on. A nil doc means no document (the defaults); any
// other doc, an empty one included, must parse.
func ResolveSpec(doc []byte, sets []string, seed uint64, quick bool) (Spec, error) {
	sp := Spec{Version: SpecVersion}
	if doc != nil {
		var err error
		if sp, err = ParseSpec(doc); err != nil {
			return Spec{}, err
		}
	}
	for _, assign := range sets {
		if err := sp.Set(assign); err != nil {
			return Spec{}, err
		}
	}
	if seed != 0 {
		sp.Seed = seed
	}
	if quick {
		sp.Quick = true
	}
	sp = sp.Normalize()
	return sp, sp.Validate()
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

func verbatim(s string) string { return s }

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

// parseStrings is parseStringList in the shape newAxis parses with.
func parseStrings(list string) ([]string, error) { return parseStringList(list), nil }

func parseStringList(list string) []string {
	var out []string
	for _, item := range strings.Split(list, ",") {
		out = append(out, strings.TrimSpace(item))
	}
	return out
}
