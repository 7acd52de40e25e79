package boinc

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestProjectAssignsReplicasToDistinctVolunteers(t *testing.T) {
	p := NewProject("einstein", 2, 64, 100)
	wuA := p.RequestWork("alice")
	wuB := p.RequestWork("bob")
	if wuA.ID != wuB.ID {
		t.Fatalf("second volunteer got a fresh unit (%s vs %s); replication wants a replica", wuA.ID, wuB.ID)
	}
	if wuA.Seed != wuB.Seed {
		t.Fatal("replicas differ in seed")
	}
	// A third volunteer gets a new unit: the first is fully assigned.
	wuC := p.RequestWork("carol")
	if wuC.ID == wuA.ID {
		t.Fatal("over-assigned replica")
	}
	// Alice cannot hold two replicas of one unit.
	wuA2 := p.RequestWork("alice")
	if wuA2.ID == wuA.ID {
		t.Fatal("volunteer holds two replicas of the same unit")
	}
}

func TestQuorumValidation(t *testing.T) {
	p := NewProject("einstein", 2, 64, 7)
	wu := p.RequestWork("alice")
	p.RequestWork("bob") // replica of the same unit
	truth := TrueResult(wu)

	if p.SubmitResult("alice", wu.ID, truth) {
		t.Fatal("validated with a single result at replication 2")
	}
	if !p.SubmitResult("bob", wu.ID, truth) {
		t.Fatal("agreeing quorum did not validate")
	}
	got, ok := p.Canonical(wu.ID)
	if !ok || got != truth {
		t.Fatalf("canonical = %v,%v want %v", got, ok, truth)
	}
	if p.Validated() != 1 || p.Invalid() != 0 {
		t.Fatalf("validated=%d invalid=%d", p.Validated(), p.Invalid())
	}
}

func TestFaultyVolunteerOutvoted(t *testing.T) {
	p := NewProject("einstein", 2, 64, 13)
	wu := p.RequestWork("mallory")
	p.RequestWork("alice")
	truth := TrueResult(wu)

	// Mallory lies; alice reports truth: no quorum yet (1 vs 1).
	if p.SubmitResult("mallory", wu.ID, truth+1) {
		t.Fatal("single bad result validated")
	}
	if p.SubmitResult("alice", wu.ID, truth) {
		t.Fatal("1-1 split validated")
	}
	// The unit is under-replicated again: a third volunteer gets it.
	wu3 := p.RequestWork("carol")
	if wu3.ID != wu.ID {
		t.Fatalf("tie-breaking replica not issued: got %s", wu3.ID)
	}
	if !p.SubmitResult("carol", wu.ID, truth) {
		t.Fatal("2-of-3 quorum did not validate")
	}
	got, _ := p.Canonical(wu.ID)
	if got != truth {
		t.Fatalf("canonical %v, want truth %v", got, truth)
	}
	if p.Invalid() != 1 {
		t.Fatalf("invalid = %d, want 1 (mallory's report)", p.Invalid())
	}
}

func TestLateReportAgainstCanonical(t *testing.T) {
	p := NewProject("e", 1, 64, 5)
	wu := p.RequestWork("alice")
	truth := TrueResult(wu)
	p.SubmitResult("alice", wu.ID, truth)
	// A straggler replica disagreeing with the canonical result counts
	// as invalid but does not change it.
	p.SubmitResult("bob", wu.ID, truth+5)
	if p.Invalid() != 1 {
		t.Fatalf("invalid = %d", p.Invalid())
	}
	got, _ := p.Canonical(wu.ID)
	if got != truth {
		t.Fatal("canonical overwritten by straggler")
	}
}

func TestProjectEndToEndGrid(t *testing.T) {
	// A small grid: 4 volunteers (one faulty) chew through units with
	// replication 2; every validated unit must carry the true result.
	p := NewProject("grid", 2, 32, 42)
	volunteers := []string{"v0", "v1", "v2", "evil"}
	type held struct {
		wu WorkUnit
	}
	holding := map[string]held{}
	for round := 0; round < 40; round++ {
		for _, v := range volunteers {
			if h, ok := holding[v]; ok {
				result := TrueResult(h.wu)
				if v == "evil" {
					result = -1
				}
				p.SubmitResult(v, h.wu.ID, result)
				delete(holding, v)
				continue
			}
			holding[v] = held{wu: p.RequestWork(v)}
		}
	}
	if p.Validated() < 10 {
		t.Fatalf("only %d units validated over 40 rounds", p.Validated())
	}
	for i := 0; i < p.nextUnit; i++ {
		id := p.unitID(i)
		if got, ok := p.Canonical(id); ok {
			if want := TrueResult(MintUnit(p.Name, i, p.seedBase, p.chunks)); got != want {
				t.Fatalf("unit %s validated wrong result %d (truth %d)", id, got, want)
			}
		}
	}
	if p.Invalid() == 0 {
		t.Fatal("the faulty volunteer was never caught")
	}
	if p.Outstanding() < 0 {
		t.Fatal("negative outstanding count")
	}
}

func TestProjectRejectsBadConfig(t *testing.T) {
	for i, fn := range []func(){
		func() { NewProject("x", 0, 10, 1) },
		func() { NewProject("x", 1, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestUnitIDsAreStable(t *testing.T) {
	p := NewProject("e", 1, 16, 9)
	a := p.RequestWork("v")
	var idx int
	if _, err := fmt.Sscanf(a.ID, "e-wu-%06d", &idx); err != nil || idx != 0 {
		t.Fatalf("unit id %q did not parse", a.ID)
	}
	if MintUnit(p.Name, 0, p.seedBase, p.chunks) != a {
		t.Fatal("issued unit differs from MintUnit's")
	}
}

func TestSubmitResultRejectsUnissuedUnit(t *testing.T) {
	p := NewProject("e", 2, 16, 3)
	wu := p.RequestWork("x")
	if got := p.RequestWork("y"); got.ID != wu.ID {
		t.Fatalf("y got %s, want the replica %s", got.ID, wu.ID)
	}
	if p.SubmitResult("a", "a-bogus", 5) {
		t.Fatal("report for a never-issued unit validated")
	}
	if p.Invalid() != 0 || p.Validated() != 0 || p.Outstanding() != 1 {
		t.Fatalf("state changed: invalid=%d validated=%d outstanding=%d",
			p.Invalid(), p.Validated(), p.Outstanding())
	}
	if _, ok := p.assignments["a-bogus"]; ok {
		t.Fatal("bogus unit entered the assignment ledger")
	}
	// The unit x and y hold is fully replicated: b must get a fresh one.
	if got := p.RequestWork("b"); got.ID == wu.ID {
		t.Fatalf("b got a third replica of %s", wu.ID)
	}
}

// refProject is the original dispatch algorithm, kept as the reference
// the needy index must agree with: every RequestWork sorts all issued
// unit IDs and scans them for the first one still short of quorum.
type refProject struct {
	name        string
	replication int
	nextUnit    int
	seedBase    uint64
	chunks      int
	assignments map[string][]string
	unitIdx     map[string]int
	reports     map[string]map[string]int
	canonical   map[string]int
	invalid     int
}

func newRefProject(name string, replication, chunks int, seedBase uint64) *refProject {
	return &refProject{
		name:        name,
		replication: replication,
		seedBase:    seedBase,
		chunks:      chunks,
		assignments: map[string][]string{},
		unitIdx:     map[string]int{},
		reports:     map[string]map[string]int{},
		canonical:   map[string]int{},
	}
}

func (p *refProject) RequestWork(volunteer string) WorkUnit {
	ids := make([]string, 0, len(p.assignments))
	for id := range p.assignments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		holders := p.assignments[id]
		if _, done := p.canonical[id]; done {
			continue
		}
		best := 0
		tally := map[int]int{}
		for _, v := range p.reports[id] {
			tally[v]++
			if tally[v] > best {
				best = tally[v]
			}
		}
		if len(holders) >= p.replication-best {
			continue
		}
		if slices.Contains(holders, volunteer) {
			continue
		}
		if _, reported := p.reports[id][volunteer]; reported {
			continue
		}
		p.assignments[id] = append(holders, volunteer)
		return MintUnit(p.name, p.unitIdx[id], p.seedBase, p.chunks)
	}
	i := p.nextUnit
	p.nextUnit++
	id := mintID(p.name, i)
	p.assignments[id] = []string{volunteer}
	p.unitIdx[id] = i
	return MintUnit(p.name, i, p.seedBase, p.chunks)
}

func (p *refProject) SubmitResult(volunteer, unitID string, peakBin int) bool {
	if p.reports[unitID] == nil {
		p.reports[unitID] = map[string]int{}
	}
	p.reports[unitID][volunteer] = peakBin
	p.assignments[unitID] = removeString(p.assignments[unitID], volunteer)
	if existing, done := p.canonical[unitID]; done {
		if peakBin != existing {
			p.invalid++
		}
		return true
	}
	counts := map[int]int{}
	for _, v := range p.reports[unitID] {
		counts[v]++
		if counts[v] >= p.replication {
			p.canonical[unitID] = v
			for _, other := range p.reports[unitID] {
				if other != v {
					p.invalid++
				}
			}
			return true
		}
	}
	return false
}

// TestRequestWorkMatchesReference drives the indexed Project and the
// sort-and-scan reference through the same seeded random call
// sequences — faulty and tie-splitting reports, late and duplicate
// reports, volunteers holding several units — and requires identical
// answers and identical quorum state after every call.
func TestRequestWorkMatchesReference(t *testing.T) {
	type config struct {
		replication int
		firstUnit   int // starting mint index
	}
	var configs []config
	for r := 1; r <= 3; r++ {
		configs = append(configs, config{r, 0})
	}
	// Crosses the 6→7-digit ID width, where string order leaves mint order.
	configs = append(configs, config{2, 999_990}, config{3, 999_990})

	for _, c := range configs {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("r%d/first%d/seed%d", c.replication, c.firstUnit, seed), func(t *testing.T) {
				checkAgainstReference(t, c.replication, c.firstUnit, seed)
			})
		}
	}
}

func checkAgainstReference(t *testing.T, replication, firstUnit int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	got := NewProject("d", replication, 8, 11)
	want := newRefProject("d", replication, 8, 11)
	got.nextUnit, want.nextUnit = firstUnit, firstUnit

	volunteers := []string{"v0", "v1", "v2", "v3", "v4", "v5"}
	held := map[string][]WorkUnit{}
	var issued []WorkUnit

	// result picks an honest, faulty, or tie-splitting bin for wu.
	truths := map[string]int{} // TrueResult runs the FFT kernel
	result := func(wu WorkUnit) int {
		truth, ok := truths[wu.ID]
		if !ok {
			truth = TrueResult(wu)
			truths[wu.ID] = truth
		}
		switch rng.Intn(6) {
		case 0:
			return truth + 1 // faulty
		case 1:
			return truth + 1 + rng.Intn(3) // disagreeing, splits ties
		default:
			return truth
		}
	}
	submit := func(step int, v string, wu WorkUnit, bin int) {
		g, w := got.SubmitResult(v, wu.ID, bin), want.SubmitResult(v, wu.ID, bin)
		if g != w {
			t.Fatalf("step %d: SubmitResult(%s, %s, %d) = %v, reference %v", step, v, wu.ID, bin, g, w)
		}
	}

	for step := 0; step < 600; step++ {
		v := volunteers[rng.Intn(len(volunteers))]
		switch op := rng.Intn(10); {
		case op < 4 || len(issued) == 0: // request, possibly holding others already
			g, w := got.RequestWork(v), want.RequestWork(v)
			if g != w {
				t.Fatalf("step %d: RequestWork(%s) = %+v, reference %+v", step, v, g, w)
			}
			held[v] = append(held[v], g)
			if len(issued) == 0 || g.ID != issued[len(issued)-1].ID {
				issued = append(issued, g)
			}
		case op < 8 && len(held[v]) > 0: // return a held unit
			k := rng.Intn(len(held[v]))
			wu := held[v][k]
			held[v] = append(held[v][:k], held[v][k+1:]...)
			submit(step, v, wu, result(wu))
		default: // late or duplicate report for any issued unit
			wu := issued[rng.Intn(len(issued))]
			submit(step, v, wu, result(wu))
		}

		if got.Validated() != len(want.canonical) || got.Invalid() != want.invalid ||
			got.Outstanding() != want.nextUnit-len(want.canonical) {
			t.Fatalf("step %d: validated/invalid/outstanding = %d/%d/%d, reference %d/%d/%d", step,
				got.Validated(), got.Invalid(), got.Outstanding(),
				len(want.canonical), want.invalid, want.nextUnit-len(want.canonical))
		}
	}
	for id := range want.unitIdx {
		g, gok := got.Canonical(id)
		w, wok := want.canonical[id]
		if g != w || gok != wok {
			t.Fatalf("Canonical(%s) = %d,%v, reference %d,%v", id, g, gok, w, wok)
		}
	}
	if firstUnit > 0 && want.nextUnit <= 1_000_000 {
		t.Fatalf("sequence never crossed the 7-digit ID width (next unit %d)", want.nextUnit)
	}
}

// BenchmarkRequestWork measures a steady request/submit cycle — two
// honest volunteers alternating at replication 2, so every other
// request tops up the unit the previous one minted — after 1k and 64k
// units issued. Dispatch scans only under-replicated units, so ns/op
// should not grow with units issued. The topup case times the top-up
// request alone against an otherwise idle index.
func BenchmarkRequestWork(b *testing.B) {
	for _, issued := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("cycle/issued=%dk", issued>>10), func(b *testing.B) {
			p := NewProject("b", 2, 8, 1)
			cycle := func(v string) {
				wu := p.RequestWork(v)
				p.SubmitResult(v, wu.ID, int(wu.Seed))
			}
			for p.nextUnit < issued {
				cycle("a")
				cycle("b")
			}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if i&1 == 0 {
					cycle("a")
				} else {
					cycle("b")
				}
			}
		})
	}
	b.Run("topup", func(b *testing.B) {
		p := NewProject("b", 2, 8, 1)
		wu := p.RequestWork("a")
		b.ReportAllocs()
		for b.Loop() {
			if p.RequestWork("b").ID != wu.ID {
				b.Fatal("request did not top up the needy unit")
			}
			// Withdraw b's replica so the unit is needy again.
			p.assignments[wu.ID] = p.assignments[wu.ID][:1]
			p.refreshNeedy(wu.ID)
		}
	})
}
