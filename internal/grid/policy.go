package grid

import (
	"fmt"

	"vmdg/internal/boinc"
	"vmdg/internal/sim"
)

// resultSpace is the range of surrogate result values, matching the
// FFT bin count of the real Einstein worker.
const resultSpace = 4096

// resultFor is the ground-truth result of a work unit: a cheap
// deterministic surrogate for the FFT peak bin (see the package
// comment for why the fleet does not run the real transform).
func resultFor(wu boinc.WorkUnit) int {
	return int(splitmix(wu.Seed^0xe1a57e1a) % resultSpace)
}

// PolicyStats aggregates what a policy did over one shard.
type PolicyStats struct {
	// UnitsIssued counts distinct work units generated; Assignments
	// counts replicas handed out (equal under fifo).
	UnitsIssued int
	Assignments int
	// Returned counts results received; Validated counts units with an
	// accepted canonical result.
	Returned  int
	Validated int
	// Bad counts canonical results that differ from ground truth —
	// corrupted results the policy failed to filter.
	Bad int
	// Invalid counts reports rejected against an established quorum
	// (replication policy only).
	Invalid int
	// Duplicates counts redundant results for already-decided units
	// (the waste a deadline reissue can cause).
	Duplicates int
	// Outstanding counts units issued but never validated.
	Outstanding int
}

// add folds other into s field-wise (for cross-shard merging).
func (s *PolicyStats) add(other PolicyStats) {
	s.UnitsIssued += other.UnitsIssued
	s.Assignments += other.Assignments
	s.Returned += other.Returned
	s.Validated += other.Validated
	s.Bad += other.Bad
	s.Invalid += other.Invalid
	s.Duplicates += other.Duplicates
	s.Outstanding += other.Outstanding
}

// Policy is a pluggable server-side scheduling discipline. A policy
// instance serves one shard's population and must be deterministic in
// its call sequence (the event loop guarantees the sequence itself is
// deterministic). Hosts are identified by their global population
// index; only the quorum policy — which wraps a real boinc.Project —
// ever materializes the "h%06d" name string, and it does so lazily so
// the fifo/deadline hot paths never format an identity at all.
type Policy interface {
	// Name identifies the policy ("fifo", "deadline", "replication").
	Name() string
	// Assign hands the requesting host a work unit.
	Assign(host int, now sim.Time) boinc.WorkUnit
	// Submit records a returned result.
	Submit(host int, wu boinc.WorkUnit, result int, now sim.Time)
	// Needed reports whether the unit still lacks a validated result —
	// the liveness check the migration queue applies before placing a
	// checkpoint, so a unit the policy meanwhile validated (a deadline
	// reissue, a completed quorum) is dropped instead of recomputed.
	Needed(wu boinc.WorkUnit) bool
	// Stats summarizes the shard when the horizon is reached.
	Stats() PolicyStats
}

// newPolicy constructs the scenario's policy for one shard. prefix
// namespaces unit IDs per (shard, environment); seedBase namespaces
// unit seeds.
func newPolicy(scn Scenario, prefix string, seedBase uint64) Policy {
	gen := unitGen{seedBase: seedBase, chunks: scn.ChunksPerUnit}
	switch scn.Policy {
	case "fifo":
		return &fifoPolicy{gen: gen}
	case "deadline":
		// A deadline past every valid horizon never expires, so capping
		// it just beyond MaxMinutes changes no result. It also keeps
		// now + slack from wrapping, which deadlinePolicy's FIFO needs:
		// deadlines must never fall as assignment time rises.
		return &deadlinePolicy{
			gen:   gen,
			slack: sim.FromSeconds(min(scn.DeadlineMin, 2*MaxMinutes) * 60),
		}
	case "replication":
		return &quorumPolicy{
			p:      boinc.NewProject(prefix, scn.Replication, scn.ChunksPerUnit, seedBase),
			issued: map[string]boinc.WorkUnit{},
			names:  map[int]string{},
		}
	default:
		panic(fmt.Sprintf("grid: unknown policy %q", scn.Policy)) // Validate rejects earlier
	}
}

// unitGen mints sequential work units with the seed and checkpoint
// conventions of boinc.Project, for the policies that do not wrap a
// Project. One deliberate deviation: the ID string is elided — the
// unit's Seed (seedBase + index) is already a unique identity, and a
// million-host fleet minting hundreds of millions of units cannot
// afford a heap string per unit. The quorum policy, which wraps a real
// Project, keeps full IDs.
type unitGen struct {
	seedBase uint64
	chunks   int
	next     int
}

func (g *unitGen) gen() boinc.WorkUnit {
	g.next++
	return g.unit(g.next - 1)
}

// unit rebuilds the i-th unit the generator minted.
func (g *unitGen) unit(i int) boinc.WorkUnit {
	return boinc.WorkUnit{
		Seed:            g.seedBase + uint64(i),
		Chunks:          g.chunks,
		CheckpointEvery: boinc.CheckpointCadence(g.chunks),
	}
}

// timeFree marks policies whose Assign/Submit ignore the call time and
// whose statistics are invariant to the interleaving of calls across
// hosts. Hosts served by such a policy settle their completion chains
// arithmetically at phase boundaries (host.settle) instead of firing
// one simulator event per completed unit — the unit→host mapping
// changes relative to strict completion-time order, but every
// statistic the policy reports is a count over per-host-deterministic
// submissions, so the merged results are unaffected (only the Fired
// event probe shrinks).
type timeFree interface {
	timeFree()
}

// fifoPolicy issues each unit exactly once, in order, and accepts the
// first (only) result as canonical. Units held by hosts that never
// return stay outstanding forever — the weakness the deadline policy
// exists to fix.
type fifoPolicy struct {
	gen unitGen
	st  PolicyStats
}

func (p *fifoPolicy) Name() string { return "fifo" }
func (p *fifoPolicy) timeFree()    {}

func (p *fifoPolicy) Assign(host int, now sim.Time) boinc.WorkUnit {
	p.st.UnitsIssued++
	p.st.Assignments++
	return p.gen.gen()
}

func (p *fifoPolicy) Submit(host int, wu boinc.WorkUnit, result int, now sim.Time) {
	p.st.Returned++
	p.st.Validated++
	if result != resultFor(wu) {
		p.st.Bad++
	}
}

// Needed: fifo issues each unit exactly once and never reissues, so a
// unit still held by a checkpoint cannot have been validated by
// anyone else.
func (p *fifoPolicy) Needed(wu boinc.WorkUnit) bool { return true }

func (p *fifoPolicy) Stats() PolicyStats {
	st := p.st
	st.Outstanding = st.UnitsIssued - st.Validated
	return st
}

// deadlineUnit is one unit's server-side record under the deadline
// policy.
type deadlineUnit struct {
	deadline sim.Time
	done     bool
}

// deadlinePolicy stamps every assignment with a deadline and reissues
// overdue units before minting fresh ones, so work held by churned-off
// volunteers is not lost — at the cost of duplicate results when the
// original host eventually returns.
//
// Assign hands out the overdue unit with the lowest issue index, and
// finds it without scanning the outstanding set. Every (re)assignment
// sets deadline = now + slack with a fixed slack and a call time that
// never decreases, so assignment order is deadline order: a FIFO holds
// the units whose deadline has not passed, and Assign moves its expired
// head into a min-heap keyed by issue index. The heap's top is the unit
// a scan in issue order would pick. Done units are skipped lazily, and
// a unit that is not done has at most one live entry across the two
// queues: it enters the FIFO when (re)assigned, leaves it only when its
// deadline passes, and is reassigned only from the top of the heap.
type deadlinePolicy struct {
	gen   unitGen
	slack sim.Time
	// units is indexed by issue index, seed − seedBase (see unitGen).
	units []deadlineUnit
	// pending[head:] holds the issue indices of assigned units in
	// deadline order; expired is a min-heap of issue indices whose
	// deadline has passed.
	pending []int
	head    int
	expired []int
	st      PolicyStats
}

func (p *deadlinePolicy) Name() string { return "deadline" }

func (p *deadlinePolicy) Assign(host int, now sim.Time) boinc.WorkUnit {
	for p.head < len(p.pending) {
		i := p.pending[p.head]
		if p.units[i].deadline > now {
			break
		}
		p.head++
		if !p.units[i].done {
			p.pushExpired(i)
		}
	}
	if p.head > len(p.pending)/2 {
		p.pending = p.pending[:copy(p.pending, p.pending[p.head:])]
		p.head = 0
	}
	for len(p.expired) > 0 {
		i := p.popExpired()
		if p.units[i].done {
			continue
		}
		p.units[i].deadline = now + p.slack
		p.pending = append(p.pending, i)
		p.st.Assignments++
		return p.gen.unit(i)
	}
	i := p.gen.next
	wu := p.gen.gen()
	p.units = append(p.units, deadlineUnit{deadline: now + p.slack})
	p.pending = append(p.pending, i)
	p.st.UnitsIssued++
	p.st.Assignments++
	return wu
}

// pushExpired adds issue index i to the expired heap.
func (p *deadlinePolicy) pushExpired(i int) {
	h := append(p.expired, i)
	j := len(h) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if h[parent] <= i {
			break
		}
		h[j] = h[parent]
		j = parent
	}
	h[j] = i
	p.expired = h
}

// popExpired removes and returns the lowest issue index in the expired
// heap.
func (p *deadlinePolicy) popExpired() int {
	h := p.expired
	top, last := h[0], h[len(h)-1]
	h = h[:len(h)-1]
	j := 0
	for {
		c := 2*j + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if last <= h[c] {
			break
		}
		h[j] = h[c]
		j = c
	}
	if len(h) > 0 {
		h[j] = last
	}
	p.expired = h
	return top
}

func (p *deadlinePolicy) Submit(host int, wu boinc.WorkUnit, result int, now sim.Time) {
	p.st.Returned++
	u := &p.units[wu.Seed-p.gen.seedBase]
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

// Needed: a reissued unit may have been validated by its rescuer
// while the original checkpoint sat in the migration queue. A seed this
// policy never issued is needed, as it is under every policy.
func (p *deadlinePolicy) Needed(wu boinc.WorkUnit) bool {
	i := wu.Seed - p.gen.seedBase
	return i >= uint64(len(p.units)) || !p.units[i].done
}

func (p *deadlinePolicy) Stats() PolicyStats {
	st := p.st
	st.Outstanding = st.UnitsIssued - st.Validated
	return st
}

// quorumPolicy is N-way replication with quorum validation, wrapping
// boinc.Project: a unit is canonical once Replication volunteers
// agree, and disagreeing reports are counted invalid.
type quorumPolicy struct {
	p      *boinc.Project
	issued map[string]boinc.WorkUnit
	order  []string // first-issue order, for deterministic stats
	names  map[int]string
	st     PolicyStats
}

func (p *quorumPolicy) Name() string { return "replication" }

// hostName formats the "h%06d" identity the wrapped Project keys its
// volunteer ledger by, memoized per host (the map stays bounded by the
// shard's population).
func (p *quorumPolicy) hostName(host int) string {
	name, ok := p.names[host]
	if !ok {
		name = hostID(host)
		p.names[host] = name
	}
	return name
}

func (p *quorumPolicy) Assign(host int, now sim.Time) boinc.WorkUnit {
	wu := p.p.RequestWork(p.hostName(host))
	if _, seen := p.issued[wu.ID]; !seen {
		p.issued[wu.ID] = wu
		p.order = append(p.order, wu.ID)
	}
	p.st.Assignments++
	return wu
}

func (p *quorumPolicy) Submit(host int, wu boinc.WorkUnit, result int, now sim.Time) {
	p.st.Returned++
	p.p.SubmitResult(p.hostName(host), wu.ID, result)
}

// Needed: a unit whose quorum completed while the checkpoint was in
// transit has a canonical result; recomputing a replica adds nothing.
func (p *quorumPolicy) Needed(wu boinc.WorkUnit) bool {
	_, decided := p.p.Canonical(wu.ID)
	return !decided
}

func (p *quorumPolicy) Stats() PolicyStats {
	st := p.st
	st.UnitsIssued = len(p.order)
	st.Validated = p.p.Validated()
	st.Invalid = p.p.Invalid()
	st.Outstanding = p.p.Outstanding()
	for _, id := range p.order {
		if v, ok := p.p.Canonical(id); ok && v != resultFor(p.issued[id]) {
			st.Bad++
		}
	}
	return st
}
