package grid

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// -update regenerates the golden fixtures under testdata/golden from
// the current simulation output. Run it only when a change is *meant*
// to alter results (and say so in the commit); the whole point of the
// fixtures is that unrelated refactors keep them byte-identical.
var update = flag.Bool("update", false, "rewrite golden fixtures")

// goldenScn is the canonical fixture scenario: big enough to churn
// through evictions, restores, and (when enabled) migrations across
// two environments and several shards, small enough to run in seconds.
// Everything is pinned — any default that drifts shows up as a diff.
func goldenScn(policy string) Scenario {
	return Scenario{
		Machines: 600, Minutes: 120, Seed: 1, Quick: true,
		Churn: true, Policy: policy, FaultyFrac: 0.02,
		Envs: []string{"vmplayer", "qemu"},
	}.Normalize()
}

// runGolden simulates every shard of scn sequentially and merges them —
// the grid-level pipeline under the engine.
func runGolden(t *testing.T, scn Scenario) *FleetResult {
	t.Helper()
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
	return fr
}

// checkGolden compares got against testdata/golden/name, rewriting the
// fixture under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run `go test ./internal/grid -run Golden -update`): %v", err)
	}
	if string(want) != got {
		t.Errorf("%s drifted from the golden fixture.\n--- want\n%s\n--- got\n%s", name, want, got)
	}
}

// TestGoldenFleetTables pins the rendered fleet table and CSV for every
// scheduling policy under the default (migration-free) pipeline. These
// fixtures were generated before checkpoint migration existed, so they
// also prove that migration=none leaves the original results — and
// their byte-exact rendering — untouched.
func TestGoldenFleetTables(t *testing.T) {
	csv := CSVHeader()
	for _, policy := range Policies() {
		fr := runGolden(t, goldenScn(policy))
		checkGolden(t, "fleet_"+policy+".txt", fr.Render())
		csv += fr.CSVRows(policy)
	}
	checkGolden(t, "fleet_policies.csv", csv)

	// A 5-minute deadline expires units while their first holders are
	// still computing, so reissues overlap and the order in which the
	// deadline policy hands expired units back out shows in the results
	// (the 30-minute default above cannot tell that order apart).
	fr := runGolden(t, goldenDeadline5())
	checkGolden(t, "fleet_deadline_5min.txt", fr.Render())
	checkGolden(t, "fleet_deadline_5min.csv", CSVHeader()+fr.CSVRows("deadline 5min"))
}

// goldenDeadline5 is the canonical deadline scenario with a 5-minute
// deadline.
func goldenDeadline5() Scenario {
	scn := goldenScn("deadline")
	scn.DeadlineMin = 5
	return scn
}

// TestGoldenMigrationTables pins the checkpoint-migration pipeline the
// same way: the canonical scenario under each migrating policy, with
// the transfer-plane columns in table and CSV form.
func TestGoldenMigrationTables(t *testing.T) {
	csv := MigCSVHeader()
	for _, mig := range []string{"on-departure", "eager"} {
		scn := goldenScn("fifo")
		scn.Migration = mig
		fr := runGolden(t, scn)
		checkGolden(t, "fleet_mig_"+mig+".txt", fr.Render())
		csv += fr.MigCSVRows("migration " + mig)
	}
	checkGolden(t, "fleet_migrations.csv", csv)

	// Deadline reissue beside on-departure migration: the migration
	// queue drops a checkpoint whose unit a reissue already validated
	// (Policy.Needed).
	scn := goldenDeadline5()
	scn.Migration = "on-departure"
	fr := runGolden(t, scn)
	checkGolden(t, "fleet_mig_on-departure_deadline_5min.txt", fr.Render())
	checkGolden(t, "fleet_mig_deadline_5min.csv",
		MigCSVHeader()+fr.MigCSVRows("migration on-departure deadline 5min"))
}
