package grid

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"vmdg/internal/boinc"
	"vmdg/internal/sim"
	"vmdg/internal/vmm"
	"vmdg/internal/vmm/profiles"
)

// quickScn is a small churning scenario used across the tests. Quick
// calibration keeps each (class, env) micro-sim short, and the
// process-wide memoization means the whole file pays for it once.
func quickScn() Scenario {
	return Scenario{
		Machines: 600, Minutes: 90, Seed: 1, Quick: true,
		Churn: true, FaultyFrac: 0.02, Envs: []string{"vmplayer"},
	}.Normalize()
}

func TestHostRangeCoversPopulation(t *testing.T) {
	for _, machines := range []int{1, 7, ShardSize, ShardSize + 1, 3*ShardSize + 5, 10000} {
		scn := Scenario{Machines: machines}.Normalize()
		if scn.Shards() != len(scn.Envs)*scn.popShards() {
			t.Fatalf("machines=%d: %d shards for %d envs × %d slices",
				machines, scn.Shards(), len(scn.Envs), scn.popShards())
		}
		next := 0
		for i := 0; i < scn.popShards(); i++ {
			lo, hi := scn.HostRange(i)
			if lo != next {
				t.Fatalf("machines=%d shard %d starts at %d, want %d", machines, i, lo, next)
			}
			if hi-lo > ShardSize {
				t.Fatalf("machines=%d shard %d holds %d hosts > ShardSize", machines, i, hi-lo)
			}
			next = hi
		}
		if next != machines {
			t.Fatalf("machines=%d shards cover %d hosts", machines, next)
		}
	}
}

func TestValidateListsEnvironments(t *testing.T) {
	scn := quickScn()
	scn.Envs = []string{"vmware-fusion"}
	err := scn.Validate()
	if err == nil {
		t.Fatal("unknown environment accepted")
	}
	for _, name := range []string{"vmplayer", "qemu", "virtualbox", "virtualpc", "native", "vmplayer-nat"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list valid environment %q", err, name)
		}
	}
}

// TestValidateErrorTable covers every Scenario.Validate error path.
// The unknown-policy and unknown-environment errors must list the
// valid names — the CLI surfaces them verbatim.
func TestValidateErrorTable(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mutate   func(*Scenario)
		wantErr  []string
		accepted bool
	}{
		{"valid defaults", func(s *Scenario) {}, nil, true},
		{"unknown policy lists valid", func(s *Scenario) { s.Policy = "lifo" },
			append([]string{`unknown policy "lifo"`}, Policies()...), false},
		{"unknown env lists valid", func(s *Scenario) { s.Envs = []string{"xen"} },
			[]string{`unknown environment "xen"`, "vmplayer", "qemu", "virtualbox", "virtualpc"}, false},
		{"faulty below range", func(s *Scenario) { s.FaultyFrac = -0.1 },
			[]string{"faulty fraction", "[0, 1]"}, false},
		{"faulty above range", func(s *Scenario) { s.FaultyFrac = 1.5 },
			[]string{"faulty fraction", "[0, 1]"}, false},
		{"machines beyond cap", func(s *Scenario) { s.Machines = MaxMachines + 1 },
			[]string{"machines"}, false},
		{"minutes beyond cap", func(s *Scenario) { s.Minutes = MaxMinutes + 1 },
			[]string{"minutes"}, false},
		{"replication beyond population", func(s *Scenario) {
			s.Policy = "replication"
			s.Machines = 3
			s.Replication = 4
		}, []string{"replication factor 4", "population 3"}, false},
		{"unknown migration lists valid", func(s *Scenario) { s.Migration = "live" },
			append([]string{`unknown migration policy "live"`}, MigrationPolicies()...), false},
		{"negative bandwidth", func(s *Scenario) { s.BandwidthMbps = -100 },
			[]string{"bandwidth -100", "positive"}, false},
		// Non-finite floats once ran every shard and then failed the
		// JSON merge ("unsupported value: NaN").
		{"faulty NaN", func(s *Scenario) { s.FaultyFrac = math.NaN() },
			[]string{"faulty fraction NaN", "[0, 1]"}, false},
		{"deadline NaN", func(s *Scenario) { s.DeadlineMin = math.NaN() },
			[]string{"deadline NaN", "finite"}, false},
		{"deadline +Inf", func(s *Scenario) { s.DeadlineMin = math.Inf(1) },
			[]string{"deadline +Inf", "finite"}, false},
		{"bandwidth NaN", func(s *Scenario) { s.BandwidthMbps = math.NaN() },
			[]string{"bandwidth NaN", "finite"}, false},
		{"bandwidth +Inf", func(s *Scenario) { s.BandwidthMbps = math.Inf(1) },
			[]string{"bandwidth +Inf", "finite"}, false},
		{"huge finite deadline", func(s *Scenario) { s.DeadlineMin = math.MaxFloat64 }, nil, true},
		{"tiny finite bandwidth", func(s *Scenario) { s.BandwidthMbps = 5e-324 }, nil, true},
		{"valid migration defaults bandwidth", func(s *Scenario) { s.Migration = "on-departure" }, nil, true},
	} {
		scn := Scenario{}
		tc.mutate(&scn)
		err := scn.Validate()
		if tc.accepted {
			if err != nil {
				t.Fatalf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		for _, want := range tc.wantErr {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not mention %q", tc.name, err, want)
			}
		}
	}
}

// TestKeyCanonicalizesInertBandwidth: without migration the transfer
// plane never engages, so bandwidth must not split the cache scope — a
// migration×bandwidth sweep simulates its none point once. With
// migration on, bandwidth is load-bearing and must distinguish scopes.
func TestKeyCanonicalizesInertBandwidth(t *testing.T) {
	a := Scenario{BandwidthMbps: 100}.Normalize()
	b := Scenario{BandwidthMbps: 1000}.Normalize()
	if a.Key() != b.Key() {
		t.Fatalf("migration=none scopes differ by inert bandwidth:\n%s\n%s", a.Key(), b.Key())
	}
	a.Migration, b.Migration = "on-departure", "on-departure"
	if a.Key() == b.Key() {
		t.Fatal("bandwidth missing from a migrating scenario's scope")
	}
}

func TestRunShardIsPure(t *testing.T) {
	scn := quickScn()
	scn.Machines = 200
	a, err := RunShard(scn, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunShard(scn, 0)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatal("two runs of the same shard differ")
	}
}

// TestMergeShardInvariant is the determinism contract at the grid
// level: merging shards is a pure fold, so the merged fleet must not
// depend on which order shards were *computed* in (the engine computes
// them on a pool in arbitrary order but always merges by index).
func TestMergeDeterministic(t *testing.T) {
	scn := quickScn()
	shards := make([]*ShardResult, scn.Shards())
	for i := range shards {
		var err error
		if shards[i], err = RunShard(scn, i); err != nil {
			t.Fatal(err)
		}
	}
	fr1, err := MergeShards(scn, shards)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute shard 1 fresh and merge again.
	again, err := RunShard(scn, 1)
	if err != nil {
		t.Fatal(err)
	}
	shards[1] = again
	fr2, err := MergeShards(scn, shards)
	if err != nil {
		t.Fatal(err)
	}
	if fr1.Render() != fr2.Render() || fr1.CSV() != fr2.CSV() {
		t.Fatal("merged fleet result not deterministic")
	}
}

func TestChurnDrivesCheckpointRestart(t *testing.T) {
	scn := quickScn()
	shards := make([]*ShardResult, scn.Shards())
	for i := range shards {
		var err error
		if shards[i], err = RunShard(scn, i); err != nil {
			t.Fatal(err)
		}
	}
	fr, err := MergeShards(scn, shards)
	if err != nil {
		t.Fatal(err)
	}
	st := fr.Envs[0]
	if st.Evictions == 0 || st.Restores == 0 {
		t.Fatalf("churn produced no eviction/restart cycles: %+v", st)
	}
	if st.LostChunks <= 0 {
		t.Fatalf("evictions lost no chunks: %+v", st)
	}
	if st.Policy.Validated == 0 {
		t.Fatalf("fleet validated no units: %+v", st.Policy)
	}
	horizon := float64(scn.Minutes) * 60 * float64(st.Hosts)
	if st.OnSeconds <= 0 || st.OnSeconds >= horizon {
		t.Fatalf("availability %f outside (0, horizon)", st.OnSeconds)
	}
	if st.Latency.N == 0 {
		t.Fatal("no interactive bursts recorded")
	}
}

// TestChurnEnvironmentIndependent checks the population contract: the
// same volunteers power-cycle the same way under every VM environment,
// so eviction/restore counts and availability match across envs.
func TestChurnEnvironmentIndependent(t *testing.T) {
	scn := quickScn()
	scn.Machines = 300
	scn.Envs = []string{"vmplayer", "qemu"}
	// Shard 0 is (vmplayer, slice 0); shard popShards() is (qemu, slice 0).
	srA, err := RunShard(scn, 0)
	if err != nil {
		t.Fatal(err)
	}
	srB, err := RunShard(scn, scn.popShards())
	if err != nil {
		t.Fatal(err)
	}
	a, b := srA.Envs[0], srB.Envs[0]
	if a.Evictions != b.Evictions || a.Restores != b.Restores || a.OnSeconds != b.OnSeconds {
		t.Fatalf("owner behaviour differs across environments:\n%+v\n%+v", a, b)
	}
	if a.Policy.Validated == b.Policy.Validated && a.LostChunks == b.LostChunks {
		t.Fatal("environments produced identical science — calibration not applied?")
	}
}

// testSlab builds a hand-wired slab of n hosts on env starting at
// global index lo: one class (pinned to 1 chunk/s in both owner states
// so flips cannot perturb progress arithmetic), migration state
// allocated, fixed per-host RNG seeds.
func testSlab(env *envShard, lo, n int, class Class) *hostSlab {
	sl := &hostSlab{}
	sl.reset(env, lo, n, []Class{class}, true)
	sl.cals[0] = &Calibration{ActiveChunksPerSec: 1, IdleChunksPerSec: 1, BurstMs: []float64{1}}
	for i := 0; i < n; i++ {
		sl.ownerRNG[i] = *sim.NewRNG(1)
		sl.envRNG[i] = *sim.NewRNG(2)
	}
	return sl
}

func TestHostCheckpointRoundTrip(t *testing.T) {
	env := &envShard{prof: profByName(t, "vmplayer")}
	sl := testSlab(env, 42, 1, Classes()[0])
	sl.hasWork[0] = true
	sl.wu[0] = boinc.WorkUnit{ID: "t-wu-000001", Seed: 9, Chunks: 1000, CheckpointEvery: 128}
	sl.progress[0] = 700.5
	sl.ckpt[0] = sl.encodeCheckpoint(0, 5*sim.Second)
	sl.wu[0], sl.progress[0], sl.hasWork[0] = boinc.WorkUnit{}, 0, false
	if err := sl.restoreCheckpoint(0); err != nil {
		t.Fatal(err)
	}
	if sl.wu[0].ID != "t-wu-000001" || !sl.hasWork[0] {
		t.Fatalf("restore lost the unit: %+v", sl.wu[0])
	}
	if sl.progress[0] != 700 {
		t.Fatalf("restored progress %v, want 700 (int chunks)", sl.progress[0])
	}
}

func TestEvictionRollsBackToCheckpoint(t *testing.T) {
	scn := Scenario{Machines: 1, Minutes: 1, Churn: true}.Normalize()
	env := &envShard{
		scn: scn, prof: profByName(t, "vmplayer"), sim: sim.New(),
		stats: &EnvStats{},
	}
	sl := testSlab(env, 0, 1, Classes()[0])
	sl.on[0], sl.hasWork[0] = true, true
	sl.wu[0] = boinc.WorkUnit{ID: "t-wu-000000", Seed: 1, Chunks: 1000, CheckpointEvery: 100}
	sl.progress[0] = 351
	sl.accrued[0] = 10 * sim.Second // progress already settled at the eviction instant
	sl.powerOff(0, 10*sim.Second)
	if sl.progress[0] != 300 {
		t.Fatalf("progress after eviction %v, want rollback to 300", sl.progress[0])
	}
	if env.stats.Evictions != 1 || env.stats.LostChunks != 51 {
		t.Fatalf("eviction accounting wrong: %+v", env.stats)
	}
	if sl.ckpt[0] == nil {
		t.Fatal("no checkpoint survived the eviction")
	}
	sl.powerOn(0, 20*sim.Second, true)
	if env.stats.Restores != 1 || sl.progress[0] != 300 || sl.wu[0].ID != "t-wu-000000" {
		t.Fatalf("restart did not resume the checkpoint: progress=%v wu=%v", sl.progress[0], sl.wu[0].ID)
	}
}

func TestQuorumPolicyValidation(t *testing.T) {
	scn := Scenario{Policy: "replication", Replication: 2, ChunksPerUnit: 800}.Normalize()
	pol := newPolicy(scn, "t", 100)
	const faulty, honest1, honest2 = 0, 1, 2
	wu := pol.Assign(faulty, 0)
	truth := resultFor(wu)

	// The second replica of the same unit goes to an honest host.
	if got := pol.Assign(honest1, 0); got.ID != wu.ID {
		t.Fatalf("under-replicated unit not topped up: got %s, want %s", got.ID, wu.ID)
	}
	pol.Submit(faulty, wu, truth+1, sim.Second)
	pol.Submit(honest1, wu, truth, 2*sim.Second)
	// 1–1 split: the tie-breaker replica goes to a third host.
	wu2 := pol.Assign(honest2, 3*sim.Second)
	if wu2.ID != wu.ID {
		t.Fatalf("tie-breaker not reissued: got %s, want %s", wu2.ID, wu.ID)
	}
	pol.Submit(honest2, wu, truth, 4*sim.Second)

	st := pol.Stats()
	if st.Validated != 1 || st.Bad != 0 {
		t.Fatalf("quorum failed to validate the true result: %+v", st)
	}
	if st.Invalid != 1 {
		t.Fatalf("corrupted report not counted invalid: %+v", st)
	}
}

func TestDeadlinePolicyReissuesOverdueUnits(t *testing.T) {
	scn := Scenario{Policy: "deadline", DeadlineMin: 1, ChunksPerUnit: 800}.Normalize()
	pol := newPolicy(scn, "t", 200)
	const goneHost, other, rescuer = 0, 1, 2
	wu := pol.Assign(goneHost, 0)

	// Before the deadline a second host gets fresh work. (Non-quorum
	// units carry no ID string; the seed is their identity.)
	early := pol.Assign(other, 30*sim.Second)
	if early.Seed == wu.Seed {
		t.Fatal("unit reissued before its deadline")
	}
	// After the deadline the overdue unit is handed out again.
	late := pol.Assign(rescuer, 2*60*sim.Second)
	if late.Seed != wu.Seed {
		t.Fatalf("overdue unit not reissued: got seed %d, want %d", late.Seed, wu.Seed)
	}
	pol.Submit(rescuer, wu, resultFor(wu), 3*60*sim.Second)
	// The original host finally returns: a duplicate, not a new unit.
	pol.Submit(goneHost, wu, resultFor(wu), 4*60*sim.Second)

	st := pol.Stats()
	if st.Validated != 1 || st.Duplicates != 1 {
		t.Fatalf("deadline accounting wrong: %+v", st)
	}
	if st.UnitsIssued != 2 || st.Assignments != 3 {
		t.Fatalf("issue accounting wrong: %+v", st)
	}
}

// overflowScn is the small churning fleet the end-of-time regressions
// run: 64 hosts on vmplayer for an hour.
func overflowScn() Scenario {
	return Scenario{
		Machines: 64, Minutes: 60, Seed: 1, Quick: true, Churn: true,
		FaultyFrac: 0.02, Envs: []string{"vmplayer"},
	}.Normalize()
}

// TestHugeUnitNeverCompletes: a unit of 10^15 chunks completes long
// after the end of sim.Time. Its predicted completion once wrapped to
// MinInt64, and formatting the scheduling panic recursed until the
// stack overflowed. Such a unit now simply never completes.
func TestHugeUnitNeverCompletes(t *testing.T) {
	for _, policy := range Policies() {
		scn := overflowScn()
		scn.Policy = policy
		scn.ChunksPerUnit = 1_000_000_000_000_000
		st := runGolden(t, scn).Envs[0]
		if st.Policy.Assignments == 0 || st.Policy.Returned != 0 {
			t.Errorf("%s: %d assigned, %d returned; want work handed out and none finished",
				policy, st.Policy.Assignments, st.Policy.Returned)
		}
	}
}

// TestTinyBandwidthNeverDrains: at 1e-9 Mbit/s a checkpoint upload
// drains past the end of sim.Time. The wrapped drain instant once
// panicked the shard ("scheduling event "xfer-drain" at -9223371667s
// before now"); the upload now never finishes, so nothing migrates and
// the fleet otherwise runs as usual.
func TestTinyBandwidthNeverDrains(t *testing.T) {
	scn := overflowScn()
	scn.Migration = "on-departure"
	scn.BandwidthMbps = 1e-9
	st := runGolden(t, scn).Envs[0]
	if st.Evictions == 0 || st.Migrations != 0 || st.MigRxBytes != 0 || st.Policy.Validated == 0 {
		t.Fatalf("evictions %d, migrations %d, rx %d B, validated %d; want departures and no migration",
			st.Evictions, st.Migrations, st.MigRxBytes, st.Policy.Validated)
	}
}

func TestFifoLeavesChurnedUnitsOutstanding(t *testing.T) {
	scn := Scenario{Policy: "fifo", ChunksPerUnit: 800}.Normalize()
	pol := newPolicy(scn, "t", 300)
	const goneHost, worker = 0, 1
	wu1 := pol.Assign(goneHost, 0)
	wu2 := pol.Assign(worker, 0)
	if wu1.Seed == wu2.Seed {
		t.Fatal("fifo reissued a unit")
	}
	pol.Submit(worker, wu2, resultFor(wu2), sim.Second)
	st := pol.Stats()
	if st.Validated != 1 || st.Outstanding != 1 {
		t.Fatalf("fifo accounting wrong: %+v", st)
	}
}

func TestHistogramPercentileAndMerge(t *testing.T) {
	var a, b Histogram
	for i := 1; i <= 100; i++ {
		a.Add(float64(i)) // 1..100 ms
	}
	p50 := a.Percentile(0.50)
	if p50 < 40 || p50 > 62 {
		t.Fatalf("p50 of 1..100ms = %v, want ≈50 within bin resolution", p50)
	}
	b.Add(1e9) // clamps into the top bin
	if got := b.Percentile(1); got < 1e4 {
		t.Fatalf("overflow latency binned at %v, want top bin", got)
	}
	var m Histogram
	m.Merge(&a)
	m.Merge(&b)
	if m.N != a.N+b.N {
		t.Fatalf("merge lost samples: %d != %d", m.N, a.N+b.N)
	}
}

func TestClassAssignmentDeterministicAndMixed(t *testing.T) {
	classes := Classes()
	seen := map[string]int{}
	for g := 0; g < 2000; g++ {
		c1 := classFor(classes, 7, g)
		c2 := classFor(classes, 7, g)
		if c1.Name != c2.Name {
			t.Fatal("class assignment not deterministic")
		}
		seen[c1.Name]++
	}
	for _, c := range classes {
		if seen[c.Name] == 0 {
			t.Fatalf("class %s missing from a 2000-host population: %v", c.Name, seen)
		}
	}
}

func profByName(t *testing.T, name string) vmm.Profile {
	t.Helper()
	prof, ok := profiles.ByName(name)
	if !ok {
		t.Fatalf("profile %s missing", name)
	}
	return prof
}
