package core

import (
	"strings"
	"testing"

	"vmdg/internal/bench/matrix"
	"vmdg/internal/cost"
)

// quickCfg is the configuration used by the reproduction tests: trimmed
// workloads, two repetitions.
func quickCfg() Config { return Config{Seed: 1, Reps: 2, Quick: true} }

// assertBands checks every measured headline value against the paper's
// acceptance band.
func assertBands(t *testing.T, res *Result) {
	t.Helper()
	targets, ok := PaperTargets[res.ID]
	if !ok {
		t.Fatalf("no paper targets registered for %s", res.ID)
	}
	for label, band := range targets {
		got, ok := res.Values[label]
		if !ok {
			t.Errorf("%s: no measurement for %q", res.ID, label)
			continue
		}
		if !band.In(got) {
			t.Errorf("%s %q = %.4g outside paper band [%.4g, %.4g] (paper: %.4g)",
				res.ID, label, got, band.Lo, band.Hi, band.Paper)
		}
	}
}

func TestReproFigure1(t *testing.T) {
	res, err := Figure1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	assertBands(t, res)
	// Shape: the paper's ordering vmplayer < virtualbox < virtualpc < qemu.
	v := res.Values
	if !(v["vmplayer"] < v["virtualbox"] && v["virtualbox"] < v["virtualpc"] && v["virtualpc"] < v["qemu"]) {
		t.Errorf("fig1 ordering broken: %+v", v)
	}
}

func TestReproFigure2(t *testing.T) {
	res, err := Figure2(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	assertBands(t, res)
	// Shape: FP impact is milder than integer impact for every
	// environment (§4.1: "the performance drop is much smaller").
	fig1, err := Figure1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, env := range GuestEnvironments() {
		if res.Values[env.Name] >= fig1.Values[env.Name] {
			t.Errorf("matrix slowdown %.3f not below 7z slowdown %.3f for %s",
				res.Values[env.Name], fig1.Values[env.Name], env.Name)
		}
	}
}

func TestFig2ShardRejectsUnverifiedProduct(t *testing.T) {
	orig := fig2Capture
	t.Cleanup(func() { fig2Capture = orig })
	fig2Capture = func(seed uint64, n, reps int) (*cost.Profile, matrix.Result) {
		prof, res := orig(seed, n, reps)
		if !res.Verified {
			t.Fatalf("n=%d: the real product failed verification", n)
		}
		res.Verified = false
		return prof, res
	}
	for shard := range fig2Def.Shards(quickCfg()) {
		_, err := fig2Def.Run(quickCfg(), shard)
		if err == nil || !strings.Contains(err.Error(), "failed verification") {
			t.Fatalf("shard %d: err = %v, want a verification failure", shard, err)
		}
	}
}

func TestReproFigure3(t *testing.T) {
	res, err := Figure3(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	assertBands(t, res)
	if res.Series == nil || len(res.Series.Lines) != 5 {
		t.Fatal("fig3 missing per-size series")
	}
	// Shape: disk I/O is the most impacted class — worse than both CPU
	// figures for every environment (§4.1).
	if res.Values["qemu"] < 3 {
		t.Errorf("qemu disk slowdown %.3f lost its catastrophic character", res.Values["qemu"])
	}
}

func TestReproFigure4(t *testing.T) {
	res, err := Figure4(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	assertBands(t, res)
	v := res.Values
	// Shape: native fastest; bridged VmPlayer ≈ native; NAT modes collapse;
	// VirtualBox NAT is the catastrophe (~75× below native).
	if !(v["native"] >= v["vmplayer"] && v["vmplayer"] > v["qemu"] &&
		v["qemu"] > v["virtualpc"] && v["virtualpc"] > v["vmplayer-nat"] &&
		v["vmplayer-nat"] > v["virtualbox"]) {
		t.Errorf("fig4 ordering broken: %+v", v)
	}
	if ratio := v["native"] / v["virtualbox"]; ratio < 40 || ratio > 120 {
		t.Errorf("virtualbox NAT collapse = %.1f× below native, want ≈75×", ratio)
	}
}

func TestReproFigure5(t *testing.T) {
	res, err := Figure5(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	assertBands(t, res)
	// Shape: priority level barely matters (§4.2.2).
	for _, env := range GuestEnvironments() {
		n := res.Values[env.Name+"/normal"]
		i := res.Values[env.Name+"/idle"]
		if diff := n - i; diff > 0.03 || diff < -0.03 {
			t.Errorf("%s MEM overhead differs by %.3f across priorities", env.Name, diff)
		}
	}
}

func TestReproFigure6(t *testing.T) {
	res, err := Figure6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	assertBands(t, res)
}

func TestReproFigureFP(t *testing.T) {
	res, err := FigureFP(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	assertBands(t, res)
}

func TestReproFigure7(t *testing.T) {
	res, err := Figure7(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	assertBands(t, res)
	v := res.Values
	// Shape: single-threaded host work is essentially unimpacted; dual-
	// threaded work loses 10–35%; VmPlayer is ≈3× more intrusive than the
	// others (§4.2.3, the paper's headline).
	for _, env := range GuestEnvironments() {
		if v[env.Name+"/1t"] < 90 {
			t.Errorf("%s 1-thread availability %.1f%% — single-thread impact should be marginal", env.Name, v[env.Name+"/1t"])
		}
	}
	vmpLoss := v["no-vm/2t"] - v["vmplayer/2t"]
	for _, other := range []string{"qemu", "virtualbox", "virtualpc"} {
		loss := v["no-vm/2t"] - v[other+"/2t"]
		if vmpLoss < 1.8*loss {
			t.Errorf("vmplayer 2t loss %.1f not ≫ %s loss %.1f", vmpLoss, other, loss)
		}
	}
}

func TestReproFigure8(t *testing.T) {
	res, err := Figure8(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	assertBands(t, res)
	// Shape: the fastest guest environment is the most intrusive host
	// neighbour — the paper's central inverse relation.
	v := res.Values
	if !(v["vmplayer/2t"] < v["qemu/2t"] && v["vmplayer/2t"] < v["virtualbox/2t"] &&
		v["vmplayer/2t"] < v["virtualpc/2t"]) {
		t.Errorf("fig8 inverse relation broken: %+v", v)
	}
}

func TestAllFiguresProducesEveryID(t *testing.T) {
	cfg := Config{Seed: 1, Reps: 1, Quick: true}
	results, err := AllFigures(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "figFP", "fig7", "fig8"}
	if len(results) != len(want) {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.ID != want[i] {
			t.Errorf("result %d = %s, want %s", i, r.ID, want[i])
		}
		if len(r.Figure.Rows) == 0 {
			t.Errorf("%s produced no rows", r.ID)
		}
		if r.Figure.Render() == "" || r.Figure.CSV() == "" {
			t.Errorf("%s failed to render", r.ID)
		}
	}
}

func TestDeterministicReproduction(t *testing.T) {
	cfg := Config{Seed: 9, Reps: 1, Quick: true}
	a, err := Figure1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, va := range a.Values {
		if vb := b.Values[k]; va != vb {
			t.Errorf("figure1 %s nondeterministic: %v vs %v", k, va, vb)
		}
	}
}
