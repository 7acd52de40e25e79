package main

import (
	"compress/gzip"
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

// TestParseResumeFlag: fold journaling is on by default and
// -resume=false opts out, identically on fleet and sweep.
func TestParseResumeFlag(t *testing.T) {
	if o, err := parseFleetArgs(nil); err != nil || !o.resume {
		t.Fatalf("fleet default: resume=%v err=%v, want on", o != nil && o.resume, err)
	}
	if o, err := parseFleetArgs([]string{"-resume=false"}); err != nil || o.resume {
		t.Fatalf("fleet -resume=false not applied: %+v err=%v", o, err)
	}
	if o, err := parseSweepArgs([]string{"-set", "envs=vmplayer"}); err != nil || !o.resume {
		t.Fatalf("sweep default: resume=%v err=%v, want on", o != nil && o.resume, err)
	}
	if o, err := parseSweepArgs([]string{"-set", "envs=vmplayer", "-resume=false"}); err != nil || o.resume {
		t.Fatalf("sweep -resume=false not applied: %+v err=%v", o, err)
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

// TestParseQuietFlag: -quiet lands on every command that draws
// progress/summary lines.
func TestParseQuietFlag(t *testing.T) {
	fo, err := parseFleetArgs([]string{"-quiet"})
	if err != nil || !fo.quiet {
		t.Fatalf("fleet -quiet: %+v, %v", fo, err)
	}
	so, err := parseSweepArgs([]string{"-quiet"})
	if err != nil || !so.quiet {
		t.Fatalf("sweep -quiet: %+v, %v", so, err)
	}
	if fo2, _ := parseFleetArgs(nil); fo2.quiet {
		t.Fatal("fleet is quiet by default")
	}
}

// TestParseCPUProfileFlag: -cpuprofile lands on fleet, sweep, and the
// run flags shared by run and report, and is off by default.
func TestParseCPUProfileFlag(t *testing.T) {
	if fo, err := parseFleetArgs(nil); err != nil || fo.cpuprof != "" {
		t.Fatalf("fleet default: %+v, %v", fo, err)
	}
	if fo, err := parseFleetArgs([]string{"-cpuprofile", "fleet.prof"}); err != nil || fo.cpuprof != "fleet.prof" {
		t.Fatalf("fleet -cpuprofile: %+v, %v", fo, err)
	}
	if so, err := parseSweepArgs([]string{"-cpuprofile", "sweep.prof"}); err != nil || so.cpuprof != "sweep.prof" {
		t.Fatalf("sweep -cpuprofile: %+v, %v", so, err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, ""},
		{[]string{"-cpuprofile", "run.prof"}, "run.prof"},
	} {
		fs := flag.NewFlagSet("run", flag.ContinueOnError)
		var rf runFlags
		rf.register(fs)
		if err := fs.Parse(tc.args); err != nil || rf.cpuprof != tc.want {
			t.Fatalf("run flags %v: cpuprof %q (%v), want %q", tc.args, rf.cpuprof, err, tc.want)
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
