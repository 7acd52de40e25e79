package boinc

import "slices"

// Project is a BOINC-style project server: it generates work units,
// hands out replicas to volunteers, and validates returned results by
// quorum — the redundancy mechanism public-resource projects use against
// faulty or malicious volunteers (Anderson 2004, cited by the paper as
// the context for VM-based sandboxing).
type Project struct {
	Name string
	// Replication is how many agreeing results a unit needs before its
	// canonical result is accepted (2 is the classic BOINC minimum).
	Replication int

	nextUnit int
	seedBase uint64
	chunks   int

	// assignments[unitID] lists volunteers currently holding a replica.
	assignments map[string][]string
	// unitIdx maps a unit ID back to its mint index (IDs are formatted
	// from the index, but parsing them back would truncate past the
	// padding width). It is also the set of units ever minted.
	unitIdx map[string]int
	// reports[unitID] collects returned peak bins, one per volunteer.
	reports map[string][]report
	// canonical[unitID] holds the quorum-validated result.
	canonical map[string]int
	// needy lists the units that should take another replica (isNeedy),
	// sorted as strings: dispatch order is ID string order, which is not
	// mint order past index 999999 (see the package doc).
	needy []string
	// invalid counts reports that disagreed with an established quorum.
	invalid int
}

// report is one volunteer's returned peak bin for a unit.
type report struct {
	volunteer string
	bin       int
}

// NewProject creates a server whose units carry the given chunk count.
func NewProject(name string, replication, chunksPerUnit int, seedBase uint64) *Project {
	if replication < 1 {
		panic("boinc: replication must be ≥ 1")
	}
	if chunksPerUnit <= 0 {
		panic("boinc: chunksPerUnit must be positive")
	}
	return &Project{
		Name:        name,
		Replication: replication,
		seedBase:    seedBase,
		chunks:      chunksPerUnit,
		assignments: map[string][]string{},
		unitIdx:     map[string]int{},
		reports:     map[string][]report{},
		canonical:   map[string]int{},
	}
}

// CheckpointCadence is the project convention for how often a unit of
// the given length checkpoints: every eighth of the unit, at least
// every chunk.
func CheckpointCadence(chunks int) int {
	every := chunks / 8
	if every < 1 {
		every = 1
	}
	return every
}

// MintUnit reconstructs the deterministic i-th work unit of a project
// stream — the (ID format, seed, checkpoint cadence) convention shared
// by Project and by schedulers that mint compatible units themselves
// (internal/grid's non-replicating policies).
func MintUnit(project string, i int, seedBase uint64, chunks int) WorkUnit {
	return unitWithID(mintID(project, i), i, seedBase, chunks)
}

// unitWithID is MintUnit around an already formatted ID.
func unitWithID(id string, i int, seedBase uint64, chunks int) WorkUnit {
	return WorkUnit{
		ID:              id,
		Seed:            seedBase + uint64(i),
		Chunks:          chunks,
		CheckpointEvery: CheckpointCadence(chunks),
	}
}

// AppendPaddedIndex appends i in decimal, zero-padded to at least six
// digits (wider values grow to the left) — the fixed-width convention
// unit IDs and internal/grid's host IDs share. Hand-rolled because a
// fleet formats hundreds of millions of these and fmt's reflection is
// the dominant cost of Sprintf at that volume.
func AppendPaddedIndex(b []byte, i int) []byte {
	digits := 6
	for v := i; v >= 1_000_000; v /= 10 {
		digits++
	}
	n := len(b)
	for j := 0; j < digits; j++ {
		b = append(b, '0')
	}
	for d := digits - 1; d >= 0; d-- {
		b[n+d] = byte('0' + i%10)
		i /= 10
	}
	return b
}

// mintID formats "<project>-wu-%06d" via AppendPaddedIndex.
func mintID(project string, i int) string {
	b := make([]byte, 0, len(project)+4+8)
	b = append(b, project...)
	b = append(b, "-wu-"...)
	return string(AppendPaddedIndex(b, i))
}

// unitID formats the id of the i-th generated unit.
func (p *Project) unitID(i int) string { return mintID(p.Name, i) }

// RequestWork assigns a replica to the volunteer: first any unit still
// short of its replication target that this volunteer neither holds nor
// has reported, in ID order, otherwise a fresh unit.
func (p *Project) RequestWork(volunteer string) WorkUnit {
	for _, id := range p.needy {
		if slices.Contains(p.assignments[id], volunteer) || reportOf(p.reports[id], volunteer) >= 0 {
			continue
		}
		p.assignments[id] = append(p.assignments[id], volunteer)
		p.refreshNeedy(id)
		return unitWithID(id, p.unitIdx[id], p.seedBase, p.chunks)
	}
	i := p.nextUnit
	p.nextUnit++
	id := p.unitID(i)
	// Room for the full quorum, so top-ups append without reallocating.
	holders := make([]string, 1, p.Replication)
	holders[0] = volunteer
	p.assignments[id] = holders
	p.unitIdx[id] = i
	p.refreshNeedy(id)
	return unitWithID(id, i, p.seedBase, p.chunks)
}

// isNeedy reports whether a unit should take another replica: it has no
// canonical result, and fewer replicas in flight than the agreeing
// reports quorum still needs beyond its best current agreement. A 1–1
// split therefore re-issues a tie-breaker.
func (p *Project) isNeedy(id string) bool {
	if _, done := p.canonical[id]; done {
		return false
	}
	best := 0
	for _, r := range p.reports[id] {
		best = max(best, agreeing(p.reports[id], r.bin))
	}
	return len(p.assignments[id]) < p.Replication-best
}

// refreshNeedy re-checks one unit's membership in the needy index after
// its holders, reports or canonical result changed.
func (p *Project) refreshNeedy(id string) {
	i, in := slices.BinarySearch(p.needy, id)
	switch want := p.isNeedy(id); {
	case want && !in:
		p.needy = slices.Insert(p.needy, i, id)
	case !want && in:
		p.needy = slices.Delete(p.needy, i, i+1)
	}
}

// TrueResult computes the ground-truth peak bin for a unit — what an
// honest volunteer's computation yields (the result is a pure function of
// the unit's seed).
func TrueResult(wu WorkUnit) int {
	return EinsteinChunk(wu.Seed).PeakBin
}

// SubmitResult records a volunteer's returned peak bin and runs quorum
// validation. It reports whether the unit now has a canonical result.
// A report for a unit the project never issued is rejected: it returns
// false and changes nothing.
func (p *Project) SubmitResult(volunteer, unitID string, peakBin int) (validated bool) {
	if _, issued := p.unitIdx[unitID]; !issued {
		return false
	}
	rs := setReport(p.reports[unitID], volunteer, peakBin)
	p.reports[unitID] = rs
	p.assignments[unitID] = removeString(p.assignments[unitID], volunteer)

	if existing, done := p.canonical[unitID]; done {
		if peakBin != existing {
			p.invalid++
		}
		return true
	}
	// Quorum: Replication agreeing values among the reports. No value
	// had reached it before this report, so only peakBin can now.
	if agreeing(rs, peakBin) >= p.Replication {
		p.canonical[unitID] = peakBin
		// Late disagreements already on file count as invalid.
		for _, r := range rs {
			if r.bin != peakBin {
				p.invalid++
			}
		}
		validated = true
	}
	p.refreshNeedy(unitID)
	return validated
}

// Validated returns how many units have canonical results.
func (p *Project) Validated() int { return len(p.canonical) }

// Invalid returns how many reports disagreed with established quorums.
func (p *Project) Invalid() int { return p.invalid }

// Canonical returns the validated result for a unit, if any.
func (p *Project) Canonical(unitID string) (int, bool) {
	v, ok := p.canonical[unitID]
	return v, ok
}

// Outstanding reports units generated but not yet validated.
func (p *Project) Outstanding() int { return p.nextUnit - len(p.canonical) }

// setReport records the volunteer's bin, replacing an earlier report of
// theirs.
func setReport(rs []report, volunteer string, bin int) []report {
	if i := reportOf(rs, volunteer); i >= 0 {
		rs[i].bin = bin
		return rs
	}
	return append(rs, report{volunteer, bin})
}

// reportOf returns the index of the volunteer's report, or -1.
func reportOf(rs []report, volunteer string) int {
	for i, r := range rs {
		if r.volunteer == volunteer {
			return i
		}
	}
	return -1
}

// agreeing counts the reports carrying bin. A unit holds only a handful
// of reports, so a scan beats a tally map.
func agreeing(rs []report, bin int) int {
	n := 0
	for _, r := range rs {
		if r.bin == bin {
			n++
		}
	}
	return n
}

func removeString(xs []string, v string) []string {
	out := xs[:0]
	for _, x := range xs {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}
