package main

import (
	"compress/gzip"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vmdg/internal/grid"
)

// TestParseFleetDefaults: a bare `dgrid fleet` must run exactly the
// spec layer's default point — the CLI adds nothing of its own.
func TestParseFleetDefaults(t *testing.T) {
	o, err := parseFleetArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := grid.Spec{}.Normalize().Points()
	if err != nil {
		t.Fatal(err)
	}
	want := pts[0].Scenario
	want.Seed = grid.DefaultSeed
	if !reflect.DeepEqual(o.scn, want) {
		t.Fatalf("default fleet scenario\n%+v\nwant\n%+v", o.scn, want)
	}
	if o.scn.Migration != "none" || o.scn.BandwidthMbps != grid.DefaultBandwidthMbps {
		t.Fatalf("migration defaults wrong: %+v", o.scn)
	}
}

// TestParseFleetFlags: every flag lands on its scenario field,
// including the migration axes.
func TestParseFleetFlags(t *testing.T) {
	o, err := parseFleetArgs([]string{
		"-machines", "1000", "-minutes", "200", "-churn", "-policy", "deadline",
		"-deadline", "45", "-faulty", "0.1", "-env", "qemu", "-seed", "9",
		"-migration", "on-departure", "-bandwidth", "250",
		"-workers", "3", "-quick", "-csv",
	})
	if err != nil {
		t.Fatal(err)
	}
	scn := o.scn
	if scn.Machines != 1000 || scn.Minutes != 200 || !scn.Churn || scn.Policy != "deadline" ||
		scn.DeadlineMin != 45 || scn.FaultyFrac != 0.1 || scn.Seed != 9 ||
		!reflect.DeepEqual(scn.Envs, []string{"qemu"}) {
		t.Fatalf("flags not applied: %+v", scn)
	}
	if scn.Migration != "on-departure" || scn.BandwidthMbps != 250 {
		t.Fatalf("migration flags not applied: %+v", scn)
	}
	if o.workers != 3 || !o.quick || !o.csv || o.jsonOut {
		t.Fatalf("runner/output flags not applied: %+v", o)
	}
}

// TestParseFleetErrors covers the flag-validation error paths with
// their user-facing messages.
func TestParseFleetErrors(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"zero machines", []string{"-machines", "0"}, "-machines 0 outside"},
		{"machines beyond cap", []string{"-machines", "10000001"}, "-machines 10000001 outside"},
		{"zero minutes", []string{"-minutes", "0"}, "-minutes 0 outside"},
		{"replication beyond machines", []string{"-machines", "3", "-policy", "replication", "-replication", "4"},
			"-replication 4 outside"},
		{"unknown policy", []string{"-policy", "lifo"}, "unknown policy"},
		{"unknown env", []string{"-env", "xen"}, "unknown environment"},
		{"unknown migration", []string{"-migration", "live"}, `unknown migration policy "live"`},
		{"zero bandwidth", []string{"-bandwidth", "0"}, "bandwidth value 0 must be positive"},
		{"negative bandwidth", []string{"-bandwidth", "-40"}, "bandwidth value -40 must be positive"},
		{"positional args", []string{"10000"}, "unexpected arguments"},
		{"unknown flag", []string{"-cores", "4"}, "not defined"},
	} {
		_, err := parseFleetArgs(tc.args)
		if err == nil {
			t.Fatalf("%s: accepted %v", tc.name, tc.args)
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestParseSweepSets: -set overrides (including integer ranges and the
// migration axes) land on the spec in order.
func TestParseSweepSets(t *testing.T) {
	o, err := parseSweepArgs([]string{
		"-set", "machines=64..256*2",
		"-set", "minutes=10..30+10",
		"-set", "policy=fifo,deadline",
		"-set", "migration=none,on-departure,eager",
		"-set", "bandwidth=100,1000",
		"-set", "envs=vmplayer",
		"-seed", "7", "-quick",
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := o.spec
	if !reflect.DeepEqual(sp.Machines, []int{64, 128, 256}) ||
		!reflect.DeepEqual(sp.Minutes, []int{10, 20, 30}) ||
		!reflect.DeepEqual(sp.Policy, []string{"fifo", "deadline"}) {
		t.Fatalf("sets not applied: %+v", sp)
	}
	if !reflect.DeepEqual(sp.Migration, []string{"none", "on-departure", "eager"}) ||
		!reflect.DeepEqual(sp.Bandwidth, []float64{100, 1000}) {
		t.Fatalf("migration axes not applied: %+v", sp)
	}
	if sp.Seed != 7 || !sp.Quick {
		t.Fatalf("scalar overrides not applied: seed=%d quick=%t", sp.Seed, sp.Quick)
	}
	if got := sp.NPoints(); got != 3*3*2*3*2 {
		t.Fatalf("expansion = %d points", got)
	}
}

// TestParseSweepSpecFileAndOverride: a spec file loads, and later -set
// flags override its axes.
func TestParseSweepSpecFileAndOverride(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	spec := `{"version":1,"name":"f","envs":["vmplayer"],"machines":[64],"migration":["eager"],"bandwidth":[100]}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := parseSweepArgs([]string{"-spec", path, "-set", "migration=none,on-departure"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o.spec.Migration, []string{"none", "on-departure"}) {
		t.Fatalf("-set did not override the file: %v", o.spec.Migration)
	}
	if !reflect.DeepEqual(o.spec.Bandwidth, []float64{100}) || o.spec.Name != "f" {
		t.Fatalf("file fields lost: %+v", o.spec)
	}
}

// TestParseSweepErrors covers the sweep's error paths, -set range
// syntax edge cases included.
func TestParseSweepErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope.json")
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"machines":[64]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"unknown axis", []string{"-set", "cores=4"}, "unknown axis"},
		{"missing equals", []string{"-set", "machines"}, "axis=value"},
		{"descending range", []string{"-set", "machines=256..64"}, "descending"},
		{"mul step below 2", []string{"-set", "machines=64..256*1"}, "*k step"},
		{"add step below 1", []string{"-set", "minutes=10..30+0"}, "+k step"},
		{"range too wide", []string{"-set", "machines=1..100000"}, "expands past"},
		{"not an integer", []string{"-set", "machines=a..b"}, "not an integer"},
		{"zero bandwidth", []string{"-set", "bandwidth=0"}, "bandwidth"},
		{"bad migration point", []string{"-set", "migration=live", "-set", "envs=vmplayer"},
			"unknown migration policy"},
		{"spec file missing", []string{"-spec", missing}, "no such file"},
		{"spec file versionless", []string{"-spec", bad}, "no version"},
		{"spec file empty", []string{"-spec", empty}, "parsing spec"},
		{"positional args", []string{"run"}, "unexpected arguments"},
	} {
		_, err := parseSweepArgs(tc.args)
		if err == nil {
			t.Fatalf("%s: accepted %v", tc.name, tc.args)
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// engineFlagCase is one command line and the engine flags it must
// parse to.
type engineFlagCase struct {
	args []string
	want engineFlags
}

// checkEngineFlags parses each case with run (and report, which shares
// run's flags), fleet and sweep: the engine flags have one declaration,
// so every command must land them on the same fields.
func checkEngineFlags(t *testing.T, cases []engineFlagCase) {
	t.Helper()
	commands := []struct {
		name  string
		parse func(args []string) (*engineFlags, error)
	}{
		{"run", func(args []string) (*engineFlags, error) {
			fs := flag.NewFlagSet("run", flag.ContinueOnError)
			var rf runFlags
			rf.register(fs)
			return &rf.engineFlags, fs.Parse(args)
		}},
		{"fleet", func(args []string) (*engineFlags, error) {
			o, err := parseFleetArgs(args)
			if err != nil {
				return nil, err
			}
			return &o.engineFlags, nil
		}},
		{"sweep", func(args []string) (*engineFlags, error) {
			o, err := parseSweepArgs(append([]string{"-set", "envs=vmplayer"}, args...))
			if err != nil {
				return nil, err
			}
			return &o.engineFlags, nil
		}},
	}
	for _, cmd := range commands {
		for _, tc := range cases {
			got, err := cmd.parse(tc.args)
			if err != nil {
				t.Fatalf("%s %v: %v", cmd.name, tc.args, err)
			}
			if *got != tc.want {
				t.Fatalf("%s %v: %+v, want %+v", cmd.name, tc.args, *got, tc.want)
			}
		}
	}
}

// TestParseResumeFlag: fold journaling is on by default and
// -resume=false opts out, identically on run, fleet and sweep.
func TestParseResumeFlag(t *testing.T) {
	checkEngineFlags(t, []engineFlagCase{
		{nil, engineFlags{resume: true}},
		{[]string{"-resume=false"}, engineFlags{}},
	})
}

// TestParseQuietFlag: -quiet is off by default and lands on every
// command that draws progress/summary lines.
func TestParseQuietFlag(t *testing.T) {
	checkEngineFlags(t, []engineFlagCase{
		{nil, engineFlags{resume: true}},
		{[]string{"-quiet"}, engineFlags{resume: true, quiet: true}},
	})
}

// TestParseCPUProfileFlag: -cpuprofile is off by default and lands on
// fleet, sweep, and the run flags shared by run and report.
func TestParseCPUProfileFlag(t *testing.T) {
	checkEngineFlags(t, []engineFlagCase{
		{nil, engineFlags{resume: true}},
		{[]string{"-cpuprofile", "x.prof"}, engineFlags{resume: true, cpuprof: "x.prof"}},
	})
}

// TestParseEngineFlags: the runner flags (-workers, -cache, -v) and
// -memprofile land on the same fields for run, fleet and sweep.
func TestParseEngineFlags(t *testing.T) {
	checkEngineFlags(t, []engineFlagCase{
		{[]string{"-workers", "3", "-cache", "off", "-v"},
			engineFlags{workers: 3, cache: "off", resume: true, verbose: true}},
		{[]string{"-memprofile", "mem.prof"}, engineFlags{resume: true, memprof: "mem.prof"}},
	})
}

// TestParseCountRanges: a -reps below 1 or a -workers below 0 is a
// usage error naming the flag and its range, on every command that
// declares it (report parses run's flags), instead of a value the
// engine silently replaces. fleet and sweep tag it errUsage, and run
// and report parse with flag.ExitOnError: both exit 2. -workers 0
// still means GOMAXPROCS.
func TestParseCountRanges(t *testing.T) {
	parsers := map[string]func(args []string) error{
		"run": func(args []string) error {
			fs := flag.NewFlagSet("run", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			var rf runFlags
			rf.register(fs)
			return fs.Parse(args)
		},
		"fleet": func(args []string) error { _, err := parseFleetArgs(args); return err },
		"sweep": func(args []string) error {
			_, err := parseSweepArgs(append([]string{"-set", "envs=vmplayer"}, args...))
			return err
		},
	}
	const reps, workers = "flag -reps: outside the valid range n >= 1", "flag -workers: outside the valid range n >= 0"
	for _, tc := range []struct {
		cmd     string
		args    []string
		wantErr string // "" when the line must parse
	}{
		{"run", []string{"-reps", "0"}, `"0" for ` + reps},
		{"run", []string{"-reps", "-1"}, `"-1" for ` + reps},
		{"run", []string{"-reps", "1"}, ""},
		{"run", []string{"-workers", "-3"}, `"-3" for ` + workers},
		{"run", []string{"-workers", "0"}, ""},
		{"run", []string{"-reps", "two"}, "flag -reps: invalid syntax"},
		{"fleet", []string{"-workers", "-3"}, `"-3" for ` + workers},
		{"fleet", []string{"-workers", "0"}, ""},
		{"sweep", []string{"-workers", "-3"}, `"-3" for ` + workers},
		{"sweep", []string{"-workers", "0"}, ""},
	} {
		err := parsers[tc.cmd](tc.args)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s %v: %v", tc.cmd, tc.args, err)
		case tc.wantErr == "":
		case err == nil:
			t.Errorf("%s %v: accepted", tc.cmd, tc.args)
		case !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s %v: error %q does not mention %q", tc.cmd, tc.args, err, tc.wantErr)
		case tc.cmd != "run" && !errors.Is(err, errUsage):
			t.Errorf("%s %v: error %q is not a usage error", tc.cmd, tc.args, err)
		}
	}
}

// TestFleetWritesCPUProfile: a fleet run with -cpuprofile leaves a
// complete profile behind: non-empty and gzip-framed, as pprof writes
// it.
func TestFleetWritesCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.prof")
	err := cmdFleet([]string{"-machines", "16", "-minutes", "1", "-env", "vmplayer", "-quick",
		"-cache", "off", "-quiet", "-json", "-cpuprofile", path})
	if err != nil {
		t.Fatal(err)
	}
	checkProfile(t, path)
}

// TestFleetWritesMemProfile: the same for -memprofile's heap profile.
func TestFleetWritesMemProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mem.prof")
	err := cmdFleet([]string{"-machines", "16", "-minutes", "1", "-env", "vmplayer", "-quick",
		"-cache", "off", "-quiet", "-json", "-memprofile", path})
	if err != nil {
		t.Fatal(err)
	}
	checkProfile(t, path)
}

// checkProfile fails t unless path holds a non-empty gzip-framed body,
// as pprof writes a profile.
func checkProfile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not gzip-framed: %v", err)
	}
	body, err := io.ReadAll(zr)
	if err != nil || len(body) == 0 {
		t.Fatalf("profile body: %d bytes, %v", len(body), err)
	}
}

// TestFleetQuietSilencesArtifactLine: with -quiet, a fleet run that
// writes artifacts prints nothing on stderr and still writes them;
// without it, stderr names the artifacts written.
func TestFleetQuietSilencesArtifactLine(t *testing.T) {
	for _, quiet := range []bool{true, false} {
		dir := t.TempDir()
		args := []string{"-machines", "16", "-minutes", "1", "-env", "vmplayer", "-quick",
			"-cache", "off", "-json", "-out", dir}
		if quiet {
			args = append(args, "-quiet")
		}
		stderr, err := fleetStderr(args)
		if err != nil {
			t.Fatal(err)
		}
		line := "dgrid: wrote 1 artifacts to " + dir + "\n"
		switch {
		case quiet && stderr != "":
			t.Errorf("-quiet: stderr = %q, want nothing", stderr)
		case !quiet && !strings.Contains(stderr, line):
			t.Errorf("stderr = %q, want it to contain %q", stderr, line)
		}
		for _, name := range []string{"fleet.json", "fleet.csv"} {
			if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
				t.Errorf("quiet=%v: %v", quiet, err)
			}
		}
	}
}

// fleetStderr runs `dgrid fleet args` with os.Stderr redirected into a
// pipe and returns what the command wrote there.
func fleetStderr(args []string) (string, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return "", err
	}
	defer r.Close()
	read := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		read <- b
	}()
	orig := os.Stderr
	os.Stderr = w
	err = cmdFleet(args)
	os.Stderr = orig
	w.Close()
	return string(<-read), err
}

// TestParseServeArgs: defaults, overrides, and the rejections that keep
// the daemon coherent (it exists to share a cache).
func TestParseServeArgs(t *testing.T) {
	o, err := parseServeArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != "127.0.0.1:8787" || !o.resume || o.maxRuns != 0 || o.drain <= 0 {
		t.Fatalf("serve defaults: %+v", o)
	}
	o, err = parseServeArgs([]string{
		"-addr", ":9000", "-cache", "/tmp/c", "-workers", "4",
		"-max-runs", "2", "-drain", "5s", "-resume=false",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != ":9000" || o.cache != "/tmp/c" || o.workers != 4 ||
		o.maxRuns != 2 || o.drain != 5*time.Second || o.resume {
		t.Fatalf("serve flags not applied: %+v", o)
	}
	if _, err := parseServeArgs([]string{"-cache", "off"}); err == nil {
		t.Fatal("serve accepted -cache off")
	}
	if _, err := parseServeArgs([]string{"positional"}); err == nil {
		t.Fatal("serve accepted positional arguments")
	}
}
