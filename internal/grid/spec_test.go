package grid

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestSpecDefaultsMatchScenarioDefaults(t *testing.T) {
	pts, err := Spec{}.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("empty spec expands to %d points, want 1", len(pts))
	}
	pt := pts[0]
	if len(pt.Axes) != 0 || pt.Label() != "" {
		t.Fatalf("default point claims swept axes: %+v", pt.Axes)
	}
	want := Scenario{Seed: DefaultSeed, FaultyFrac: DefaultFaultyFrac}.Normalize()
	if !reflect.DeepEqual(pt.Scenario, want) {
		t.Fatalf("default point scenario\n%+v\nwant\n%+v", pt.Scenario, want)
	}
}

func TestSpecPointsOrderAndLabels(t *testing.T) {
	sp := Spec{
		Machines: []int{100, 200},
		Churn:    []bool{false, true},
		Policy:   []string{"fifo", "deadline"},
		Envs:     []string{"vmplayer"},
	}
	pts, err := sp.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("2×2×2 spec expands to %d points", len(pts))
	}
	// Axes nest in canonical order (machines ≻ churn ≻ policy), last
	// axis fastest.
	wantLabels := []string{
		"machines=100 churn=off policy=fifo",
		"machines=100 churn=off policy=deadline",
		"machines=100 churn=on policy=fifo",
		"machines=100 churn=on policy=deadline",
		"machines=200 churn=off policy=fifo",
		"machines=200 churn=off policy=deadline",
		"machines=200 churn=on policy=fifo",
		"machines=200 churn=on policy=deadline",
	}
	for i, pt := range pts {
		if pt.Label() != wantLabels[i] {
			t.Fatalf("point %d label %q, want %q", i, pt.Label(), wantLabels[i])
		}
		if pt.Index != i {
			t.Fatalf("point %d carries index %d", i, pt.Index)
		}
	}
	if got := sp.SweptAxes(); !reflect.DeepEqual(got, []string{"machines", "churn", "policy"}) {
		t.Fatalf("swept axes %v", got)
	}
	// Widening the policy axis preserves every existing scenario.
	wide := sp
	wide.Policy = []string{"fifo", "deadline", "replication"}
	widePts, err := wide.Points()
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, pt := range widePts {
		keys[pt.Scenario.Key()] = true
	}
	for _, pt := range pts {
		if !keys[pt.Scenario.Key()] {
			t.Fatalf("widening dropped point %q", pt.Label())
		}
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	sp := Spec{
		Version:     SpecVersion,
		Name:        "rt",
		Seed:        7,
		Envs:        []string{"vmplayer", "qemu"},
		Machines:    []int{64, 128},
		Minutes:     []int{30},
		Churn:       []bool{true},
		Policy:      []string{"fifo", "replication"},
		Replication: []int{2},
		FaultyFrac:  []float64{0, 0.05},
		Migration:   []string{"none", "on-departure"},
		Bandwidth:   []float64{100, 1000},
	}
	data, err := sp.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, sp) {
		t.Fatalf("round trip changed the spec:\n%+v\nvs\n%+v", back, sp)
	}
	a, err := sp.Points()
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Points()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("round trip changed the expansion")
	}
}

func TestParseSpecRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name, in, wantErr string
	}{
		{"unknown field", `{"version":1,"machines":[64],"polciy":["fifo"]}`, "polciy"},
		{"missing version", `{"machines":[64]}`, "version"},
		{"trailing data", `{"version":1}{"version":2}`, "trailing"},
		{"stray closing brace", `{"version":1}}`, "trailing"},
		{"stray closing bracket", `{"version":1}]`, "trailing"},
		{"trailing garbage", `{"version":1} garbage`, "trailing"},
		{"not json", `machines=64`, "parsing spec"},
	} {
		_, err := ParseSpec([]byte(tc.in))
		if err == nil {
			t.Fatalf("%s: accepted %q", tc.name, tc.in)
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestResolveSpec pins the one precedence the CLI and the daemon share:
// the document, then the sets in order, then the seed and quick
// scalars, then normalization and validation.
func TestResolveSpec(t *testing.T) {
	doc := []byte(`{"version":1,"name":"d","seed":5,"quick":true,"envs":["vmplayer"],"machines":[64],"policy":["fifo"]}`)
	fromDoc := Spec{Version: 1, Name: "d", Seed: 5, Quick: true, Envs: []string{"vmplayer"},
		Machines: []int{64}, Policy: []string{"fifo"}}
	with := func(edit func(*Spec)) Spec {
		sp := fromDoc
		edit(&sp)
		return sp.Normalize()
	}
	for _, tc := range []struct {
		name    string
		doc     []byte
		sets    []string
		seed    uint64
		quick   bool
		want    Spec
		wantErr string
	}{
		{name: "nil document gives the defaults", want: Spec{}.Normalize()},
		{name: "document", doc: doc, want: fromDoc.Normalize()},
		{name: "sets override the document in order", doc: doc,
			sets: []string{"machines=32", "policy=fifo,deadline", "machines=128"},
			want: with(func(sp *Spec) { sp.Machines, sp.Policy = []int{128}, []string{"fifo", "deadline"} })},
		{name: "seed scalar overrides document and sets", doc: doc, sets: []string{"seed=9"}, seed: 7,
			want: with(func(sp *Spec) { sp.Seed = 7 })},
		{name: "seed 0 keeps the document's", doc: doc, want: fromDoc.Normalize()},
		{name: "seed 0 keeps a set seed", doc: doc, sets: []string{"seed=9"},
			want: with(func(sp *Spec) { sp.Seed = 9 })},
		{name: "quick scalar turns quick on", sets: []string{"envs=vmplayer"}, quick: true,
			want: Spec{Quick: true, Envs: []string{"vmplayer"}}.Normalize()},
		{name: "empty document is an error", doc: []byte{}, wantErr: "parsing spec"},
		{name: "bad set", doc: doc, sets: []string{"cores=4"}, wantErr: "unknown axis"},
		{name: "invalid result", sets: []string{"policy=lifo"}, wantErr: "unknown policy"},
	} {
		got, err := ResolveSpec(tc.doc, tc.sets, tc.seed, tc.quick)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("%s: error %v, want one mentioning %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}

func TestSpecValidateErrors(t *testing.T) {
	base := func() Spec {
		return Spec{Envs: []string{"vmplayer"}, Machines: []int{64}, Minutes: []int{10}}
	}
	for _, tc := range []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
		{"future version", func(sp *Spec) { sp.Version = SpecVersion + 1 }, "unsupported spec version"},
		{"zero machines", func(sp *Spec) { sp.Machines = []int{64, 0} }, "machines"},
		{"zero minutes", func(sp *Spec) { sp.Minutes = []int{0} }, "minutes"},
		{"zero replication", func(sp *Spec) { sp.Replication = []int{2, 0} },
			"grid: spec axis replication value 0 must be at least 1"},
		{"zero chunks per unit", func(sp *Spec) { sp.ChunksPerUnit = []int{0} },
			"grid: spec axis chunks_per_unit value 0 must be at least 1"},
		{"zero deadline", func(sp *Spec) { sp.DeadlineMin = []float64{0} },
			"grid: spec axis deadline_min value 0 must be positive"},
		{"negative deadline", func(sp *Spec) { sp.DeadlineMin = []float64{-1} }, "deadline_min"},
		{"bad policy labels point", func(sp *Spec) {
			sp.Policy = []string{"fifo", "lifo"}
		}, "point [policy=lifo]"},
		{"bad env", func(sp *Spec) { sp.Envs = []string{"xen"} }, "unknown environment"},
		{"zero bandwidth", func(sp *Spec) { sp.Bandwidth = []float64{1000, 0} }, "bandwidth"},
		{"negative bandwidth", func(sp *Spec) { sp.Bandwidth = []float64{-40} }, "bandwidth"},
		{"bad migration labels point", func(sp *Spec) {
			sp.Migration = []string{"none", "live"}
		}, "point [migration=live]"},
		{"too many points", func(sp *Spec) {
			sp.Machines = make([]int, 0, 70)
			for i := 0; i < 70; i++ {
				sp.Machines = append(sp.Machines, i+1)
			}
			sp.Minutes = sp.Machines
		}, "points"},
	} {
		sp := base()
		tc.mutate(&sp)
		err := sp.Validate()
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestSpecAxesTable pins each axis table entry to its own Spec list and
// Scenario field: the list's JSON tag is the axis name, in expansion
// order, and setting the axis to one non-default value moves exactly
// that field of the expanded scenario.
func TestSpecAxesTable(t *testing.T) {
	var tags []string
	st := reflect.TypeOf(Spec{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if f.Type.Kind() == reflect.Slice && f.Name != "Envs" {
			tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			tags = append(tags, tag)
		}
	}
	if !reflect.DeepEqual(tags, AxisNames()) {
		t.Fatalf("Spec list tags %v, want the axes %v", tags, AxisNames())
	}

	base, err := Spec{}.Points()
	if err != nil {
		t.Fatal(err)
	}
	def := reflect.ValueOf(base[0].Scenario)
	for _, tc := range []struct{ axis, value, field string }{
		{"machines", "300", "Machines"},
		{"minutes", "7", "Minutes"},
		{"churn", "on", "Churn"},
		{"policy", "deadline", "Policy"},
		{"replication", "3", "Replication"},
		{"deadline_min", "45", "DeadlineMin"},
		{"faulty", "0.1", "FaultyFrac"},
		{"chunks_per_unit", "5", "ChunksPerUnit"},
		{"migration", "eager", "Migration"},
		{"bandwidth", "100", "BandwidthMbps"},
	} {
		var sp Spec
		if err := sp.Set(tc.axis + "=" + tc.value); err != nil {
			t.Fatalf("%s: %v", tc.axis, err)
		}
		pts, err := sp.Points()
		if err != nil {
			t.Fatalf("%s: %v", tc.axis, err)
		}
		got := reflect.ValueOf(pts[0].Scenario)
		var moved []string
		for i := 0; i < got.NumField(); i++ {
			if !reflect.DeepEqual(got.Field(i).Interface(), def.Field(i).Interface()) {
				moved = append(moved, got.Type().Field(i).Name)
			}
		}
		if !reflect.DeepEqual(moved, []string{tc.field}) {
			t.Errorf("-set %s=%s moved scenario fields %v, want [%s]", tc.axis, tc.value, moved, tc.field)
		}
		tags = slices.DeleteFunc(tags, func(s string) bool { return s == tc.axis })
	}
	if len(tags) > 0 {
		t.Errorf("axes %v have no field check", tags)
	}

	// Normalize copies the default environments; a spec that edits its
	// own list must not change the next spec's defaults.
	sp := Spec{}.Normalize()
	sp.Envs[0] = "edited"
	if (Spec{}).Normalize().Envs[0] == "edited" {
		t.Fatal("Normalize shares its default environment list between specs")
	}
}

// specSetAssigns are accepted -set assignments, applied in order to
// one spec by TestSpecSet.
var specSetAssigns = []string{
	"policy=fifo, deadline",
	"machines=64..256*2",
	"minutes=10..30+10",
	"churn=off,on",
	"faulty=0,0.05",
	"seed=9",
	"quick=on",
	"envs=vmplayer,qemu",
	"name=from-sets",
	"migration=none,on-departure,eager",
	"bandwidth=100,1000",
}

// specSetRanges are integer ranges whose next step would pass the upper
// bound or overflow an int: each stops before that step.
var specSetRanges = []struct {
	assign string
	want   []int
}{
	{"machines=3..10*6148914691236517206", []int{3}},
	{"machines=1..5+9223372036854775807", []int{1}},
	{"machines=9223372036854775806..9223372036854775807", []int{math.MaxInt - 1, math.MaxInt}},
	{"machines=-9223372036854775808..9223372036854775807+9223372036854775807",
		[]int{math.MinInt, -1, math.MaxInt - 1}},
	{"machines=4611686018427387904..9223372036854775807*2", []int{math.MaxInt/2 + 1}},
}

// specSetErrors are assignments Set rejects, each with a phrase its
// error must contain.
var specSetErrors = []struct{ assign, wantErr string }{
	{"no-equals", "axis=value"},
	{"color=red", "unknown axis"},
	{"machines=many", "not an integer"},
	{"machines=64..32", "descending"},
	{"machines=1..1000000*1", "*k step"},
	{"machines=1..100+0", "+k step"},
	{"machines=1..100000", "expands past"},
	{"churn=maybe", "not a boolean"},
	{"seed=-1", "unsigned"},
	{"faulty=lots", "not a number"},
}

func TestSpecSet(t *testing.T) {
	var sp Spec
	for _, assign := range specSetAssigns {
		if err := sp.Set(assign); err != nil {
			t.Fatalf("Set(%q): %v", assign, err)
		}
	}
	if !reflect.DeepEqual(sp.Policy, []string{"fifo", "deadline"}) {
		t.Fatalf("policy = %v", sp.Policy)
	}
	if !reflect.DeepEqual(sp.Machines, []int{64, 128, 256}) {
		t.Fatalf("machines = %v", sp.Machines)
	}
	if !reflect.DeepEqual(sp.Minutes, []int{10, 20, 30}) {
		t.Fatalf("minutes = %v", sp.Minutes)
	}
	if !reflect.DeepEqual(sp.Churn, []bool{false, true}) {
		t.Fatalf("churn = %v", sp.Churn)
	}
	if !reflect.DeepEqual(sp.FaultyFrac, []float64{0, 0.05}) {
		t.Fatalf("faulty = %v", sp.FaultyFrac)
	}
	if sp.Seed != 9 || !sp.Quick || sp.Name != "from-sets" {
		t.Fatalf("scalars not applied: %+v", sp)
	}
	if !reflect.DeepEqual(sp.Envs, []string{"vmplayer", "qemu"}) {
		t.Fatalf("envs = %v", sp.Envs)
	}
	if !reflect.DeepEqual(sp.Migration, []string{"none", "on-departure", "eager"}) {
		t.Fatalf("migration = %v", sp.Migration)
	}
	if !reflect.DeepEqual(sp.Bandwidth, []float64{100, 1000}) {
		t.Fatalf("bandwidth = %v", sp.Bandwidth)
	}

	for _, tc := range specSetRanges {
		var sp Spec
		if err := sp.Set(tc.assign); err != nil {
			t.Fatalf("Set(%q): %v", tc.assign, err)
		}
		if !reflect.DeepEqual(sp.Machines, tc.want) {
			t.Fatalf("Set(%q): machines = %v, want %v", tc.assign, sp.Machines, tc.want)
		}
	}

	for _, tc := range specSetErrors {
		err := sp.Set(tc.assign)
		if err == nil {
			t.Fatalf("Set(%q): accepted", tc.assign)
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("Set(%q): error %q does not mention %q", tc.assign, err, tc.wantErr)
		}
	}
}
