package grid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vmdg/internal/boinc"
	"vmdg/internal/sim"
)

// refDeadline is the original deadline policy, kept as the reference
// the reissue index must agree with: every Assign scans all units past
// the done prefix, in issue order, for the first overdue one.
type refDeadline struct {
	gen    unitGen
	slack  sim.Time
	units  []*refDeadlineUnit // issue order
	bySeed map[uint64]*refDeadlineUnit
	scan   int // units[:scan] are all done
	st     PolicyStats
}

type refDeadlineUnit struct {
	wu       boinc.WorkUnit
	deadline sim.Time
	done     bool
}

func (p *refDeadline) Assign(host int, now sim.Time) boinc.WorkUnit {
	for p.scan < len(p.units) && p.units[p.scan].done {
		p.scan++
	}
	for _, u := range p.units[p.scan:] {
		if !u.done && u.deadline <= now {
			u.deadline = now + p.slack
			p.st.Assignments++
			return u.wu
		}
	}
	wu := p.gen.gen()
	u := &refDeadlineUnit{wu: wu, deadline: now + p.slack}
	p.units = append(p.units, u)
	p.bySeed[wu.Seed] = u
	p.st.UnitsIssued++
	p.st.Assignments++
	return wu
}

func (p *refDeadline) Submit(host int, wu boinc.WorkUnit, result int, now sim.Time) {
	p.st.Returned++
	u := p.bySeed[wu.Seed]
	if u.done {
		p.st.Duplicates++
		return
	}
	u.done = true
	p.st.Validated++
	if result != resultFor(wu) {
		p.st.Bad++
	}
}

func (p *refDeadline) Needed(wu boinc.WorkUnit) bool {
	u := p.bySeed[wu.Seed]
	return u == nil || !u.done
}

func (p *refDeadline) Stats() PolicyStats {
	st := p.st
	st.Outstanding = st.UnitsIssued - st.Validated
	return st
}

// TestDeadlineAssignMatchesReference drives the reissue index and the
// reference scan through the same seeded call sequences — repeated and
// advancing call times; held, reissued, duplicate, late, corrupted and
// abandoned results; liveness checks on issued, done and never-issued
// seeds — and requires identical units, answers and statistics at
// every step.
func TestDeadlineAssignMatchesReference(t *testing.T) {
	slacks := []sim.Time{0, 1, sim.Second, 30 * sim.Second, 10 * 60 * sim.Second}
	reissued := map[sim.Time]int{}
	for _, slack := range slacks {
		for seed := int64(0); seed < 64; seed++ {
			t.Run(fmt.Sprintf("slack=%dns/seed=%d", int64(slack), seed), func(t *testing.T) {
				reissued[slack] += checkDeadlineAgainstReference(t, slack, seed)
			})
		}
	}
	for _, slack := range slacks {
		if reissued[slack] == 0 {
			t.Errorf("slack %v: no sequence ever reissued a unit", slack)
		}
	}
}

// checkDeadlineAgainstReference runs one seeded sequence and returns
// how many assignments were reissues.
func checkDeadlineAgainstReference(t *testing.T, slack sim.Time, seed int64) int {
	const seedBase, hosts, steps = 1000, 6, 400
	rng := rand.New(rand.NewSource(seed))
	gen := unitGen{seedBase: seedBase, chunks: 8}
	got := &deadlinePolicy{gen: gen, slack: slack}
	want := &refDeadline{gen: gen, slack: slack, bySeed: map[uint64]*refDeadlineUnit{}}

	held := make([][]boinc.WorkUnit, hosts)
	var issued []boinc.WorkUnit
	var now sim.Time
	reissues := 0
	needed := func(step int, wu boinc.WorkUnit) {
		if g, w := got.Needed(wu), want.Needed(wu); g != w {
			t.Fatalf("step %d: Needed(seed %d) = %v, reference %v", step, wu.Seed, g, w)
		}
	}
	for step := 0; step < steps; step++ {
		// Repeated call times are common: many hosts act at one instant.
		switch rng.Intn(8) {
		case 0, 1, 2:
		case 3:
			now++
		case 4:
			now += slack / 3
		case 5:
			now += slack
		case 6:
			now += slack + 1
		default:
			now += sim.Time(rng.Int63n(2*int64(slack) + 2))
		}
		h := rng.Intn(hosts)
		switch op := rng.Intn(12); {
		case op < 5 || len(issued) == 0:
			g, w := got.Assign(h, now), want.Assign(h, now)
			if g != w {
				t.Fatalf("step %d: Assign(%d, %v) = %+v, reference %+v", step, h, now, g, w)
			}
			held[h] = append(held[h], g)
			if g.Seed-seedBase < uint64(len(issued)) {
				reissues++
			} else {
				issued = append(issued, g)
			}
		case op < 8 && len(held[h]) > 0: // return a held unit, sometimes corrupted
			k := rng.Intn(len(held[h]))
			wu := held[h][k]
			held[h] = append(held[h][:k], held[h][k+1:]...)
			result := resultFor(wu)
			if rng.Intn(5) == 0 {
				result++
			}
			got.Submit(h, wu, result, now)
			want.Submit(h, wu, result, now)
		case op < 9 && len(held[h]) > 0: // the host leaves and never returns its units
			held[h] = held[h][:0]
		case op < 10: // a late or duplicate report for any issued unit
			wu := issued[rng.Intn(len(issued))]
			got.Submit(h, wu, resultFor(wu), now)
			want.Submit(h, wu, resultFor(wu), now)
		default:
			needed(step, issued[rng.Intn(len(issued))])
			needed(step, gen.unit(len(issued)+rng.Intn(3)))                // never issued
			needed(step, boinc.WorkUnit{Seed: uint64(rng.Intn(seedBase))}) // below the seed base
		}
		if g, w := got.Stats(), want.Stats(); g != w {
			t.Fatalf("step %d: Stats() = %+v, reference %+v", step, g, w)
		}
	}
	for _, wu := range issued {
		needed(steps, wu)
	}
	return reissues
}

// TestHugeDeadlineNeverExpires: a deadline of 1e300 minutes once wrapped
// the slack negative, so every unit was overdue the moment it was
// issued (the run matched a 1e-12-minute deadline: 49 units issued,
// 4168 duplicates). Any deadline past every valid horizon must behave
// like one that never expires.
func TestHugeDeadlineNeverExpires(t *testing.T) {
	run := func(deadlineMin float64) *FleetResult {
		scn := overflowScn()
		scn.Machines, scn.Minutes = 200, 240
		scn.Policy, scn.DeadlineMin = "deadline", deadlineMin
		return runGolden(t, scn)
	}
	never := run(1e6)
	if st := never.Envs[0].Policy; st.Duplicates != 0 || st.UnitsIssued != st.Assignments {
		t.Fatalf("a 1e6-minute deadline expired within 240 minutes: %+v", st)
	}
	for _, d := range []float64{3 * MaxMinutes, 1e300, math.MaxFloat64} {
		if got, want := run(d).CSVRows("deadline"), never.CSVRows("deadline"); got != want {
			t.Errorf("deadline %g min:\n%s\nwant (as for 1e6 min):\n%s", d, got, want)
		}
	}
}
