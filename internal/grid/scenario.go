package grid

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"vmdg/internal/vmm"
	"vmdg/internal/vmm/profiles"
)

// ShardSize is the maximum number of hosts one shard simulates. It
// fixes the shard count for a given fleet size, so results never
// depend on the worker count that happens to execute the shards.
const ShardSize = 512

// MaxMachines and MaxMinutes bound a scenario to what the simulator is
// sized (and tested) for: a ten-million-host fleet over up to a virtual
// year. Validate rejects anything beyond them with the valid range.
const (
	MaxMachines = 10_000_000
	MaxMinutes  = 366 * 24 * 60
)

// DefaultBandwidthMbps is the default aggregate capacity, in Mbit/s,
// of the server frontend serving one population slice: a gigabit NIC
// per frontend of the (sharded) project server.
const DefaultBandwidthMbps = 1000

// Scenario describes one fleet simulation. The zero value is not
// runnable; call Normalize (idempotent) to fill defaults and Validate
// to check it.
type Scenario struct {
	// Machines is the volunteer population size.
	Machines int
	// Minutes is the virtual horizon.
	Minutes int
	// Seed drives every stochastic element; identical scenarios with
	// identical seeds are bit-identical.
	Seed uint64
	// Quick trims the calibration windows (for unit tests).
	Quick bool

	// Churn enables volunteer power churn (owners arriving and
	// leaving, machines powering off mid-work-unit). Without it every
	// machine is on for the whole horizon and only owner activity
	// varies.
	Churn bool
	// Policy selects the server's scheduling policy: "fifo",
	// "deadline", or "replication".
	Policy string
	// Replication is the quorum size for the replication policy.
	Replication int
	// DeadlineMin is the work-unit deadline, in virtual minutes, for
	// the deadline policy.
	DeadlineMin float64
	// FaultyFrac is the fraction of hosts that return corrupted
	// results (what quorum validation exists to catch).
	FaultyFrac float64
	// ChunksPerUnit sizes a work unit; at the calibrated office-class
	// rates the default is roughly ten virtual minutes of science.
	ChunksPerUnit int
	// Envs lists the VM environments to fleet (profile names accepted
	// by profiles.ByName). Empty means the paper's four environments.
	Envs []string

	// Migration selects server-mediated checkpoint migration over the
	// modeled network: "none" keeps checkpoints on their host (the
	// paper's baseline — a departed host's work waits for its return),
	// "on-departure" has a departing host upload its checkpoint so the
	// server can re-place the unit on another volunteer, and "eager"
	// keeps a server-side copy fresh with periodic incremental syncs so
	// a departure migrates instantly from the latest copy.
	Migration string
	// BandwidthMbps is the aggregate transfer capacity, in Mbit/s, of
	// the server frontend serving each population slice (the server
	// farm is sharded exactly like the simulation, so capacity scales
	// with the fleet). Zero means DefaultBandwidthMbps.
	BandwidthMbps float64
}

// Policies names the valid scheduling policies.
func Policies() []string { return []string{"fifo", "deadline", "replication"} }

// MigrationPolicies names the valid checkpoint-migration policies.
func MigrationPolicies() []string { return []string{"none", "on-departure", "eager"} }

// EnvNames returns every valid -env value: exactly the profile names
// ByName resolves.
func EnvNames() []string {
	var names []string
	for _, p := range profiles.Named() {
		names = append(names, p.Name)
	}
	return names
}

// Normalize fills unset fields with defaults and returns the result.
func (s Scenario) Normalize() Scenario {
	if s.Machines <= 0 {
		s.Machines = 256
	}
	if s.Minutes <= 0 {
		s.Minutes = 60
	}
	if s.Policy == "" {
		s.Policy = "fifo"
	}
	if s.Replication <= 0 {
		s.Replication = 2
	}
	if s.DeadlineMin <= 0 {
		s.DeadlineMin = 30
	}
	if s.ChunksPerUnit <= 0 {
		s.ChunksPerUnit = 1_000_000
	}
	if len(s.Envs) == 0 {
		for _, p := range profiles.All() {
			s.Envs = append(s.Envs, p.Name)
		}
	}
	if s.Migration == "" {
		s.Migration = "none"
	}
	// Exactly zero means unset; a negative bandwidth is left for
	// Validate to reject rather than silently papered over.
	if s.BandwidthMbps == 0 {
		s.BandwidthMbps = DefaultBandwidthMbps
	}
	return s
}

// Migrates reports whether the (normalized) scenario moves checkpoints
// between hosts — the switch for the extra table and CSV columns.
func (s Scenario) Migrates() bool { return s.Normalize().Migration != "none" }

// Validate reports the first configuration error. Unknown environment
// names list the valid set.
func (s Scenario) Validate() error {
	s = s.Normalize()
	ok := false
	for _, p := range Policies() {
		if s.Policy == p {
			ok = true
			break
		}
	}
	if !ok {
		return fmt.Errorf("grid: unknown policy %q (valid: %s)", s.Policy, strings.Join(Policies(), ", "))
	}
	for _, env := range s.Envs {
		if _, found := profiles.ByName(env); !found {
			valid := EnvNames()
			sort.Strings(valid)
			return fmt.Errorf("grid: unknown environment %q (valid: %s)", env, strings.Join(valid, ", "))
		}
	}
	// The float comparisons below are written so that NaN fails them.
	if !(s.FaultyFrac >= 0 && s.FaultyFrac <= 1) {
		return fmt.Errorf("grid: faulty fraction %g outside [0, 1]", s.FaultyFrac)
	}
	if !(s.DeadlineMin > 0 && s.DeadlineMin <= math.MaxFloat64) {
		return fmt.Errorf("grid: deadline %g minutes must be finite and positive", s.DeadlineMin)
	}
	if s.Machines > MaxMachines {
		return fmt.Errorf("grid: %d machines outside [1, %d]", s.Machines, MaxMachines)
	}
	if s.Minutes > MaxMinutes {
		return fmt.Errorf("grid: %d minutes outside [1, %d]", s.Minutes, MaxMinutes)
	}
	if s.Policy == "replication" && s.Replication > s.Machines {
		return fmt.Errorf("grid: replication factor %d exceeds the population %d (valid: 1..%d)",
			s.Replication, s.Machines, s.Machines)
	}
	ok = false
	for _, p := range MigrationPolicies() {
		if s.Migration == p {
			ok = true
			break
		}
	}
	if !ok {
		return fmt.Errorf("grid: unknown migration policy %q (valid: %s)",
			s.Migration, strings.Join(MigrationPolicies(), ", "))
	}
	if !(s.BandwidthMbps > 0 && s.BandwidthMbps <= math.MaxFloat64) {
		return fmt.Errorf("grid: bandwidth %g Mbit/s must be finite and positive", s.BandwidthMbps)
	}
	return nil
}

// envProfiles resolves the scenario's environments.
func (s Scenario) envProfiles() []vmm.Profile {
	var out []vmm.Profile
	for _, env := range s.Envs {
		p, _ := profiles.ByName(env)
		out = append(out, p)
	}
	return out
}

// Key canonicalizes every scenario parameter except Seed and Quick
// (those are carried by the engine config) into a cache-scope string.
func (s Scenario) Key() string {
	s = s.Normalize()
	// Bandwidth is inert without migration — the transfer plane never
	// engages — so the scope canonicalizes it under "none": the none
	// point of a migration×bandwidth sweep is simulated once and
	// shares shards with every plain fleet run of the same scenario.
	bw := s.BandwidthMbps
	if s.Migration == "none" {
		bw = DefaultBandwidthMbps
	}
	return fmt.Sprintf("machines=%d|min=%d|churn=%t|policy=%s|rep=%d|ddl=%g|faulty=%g|chunks=%d|envs=%s|mig=%s|bw=%g",
		s.Machines, s.Minutes, s.Churn, s.Policy, s.Replication, s.DeadlineMin,
		s.FaultyFrac, s.ChunksPerUnit, strings.Join(s.Envs, "+"), s.Migration, bw)
}

// popShards reports how many slices the population splits into.
func (s Scenario) popShards() int {
	s = s.Normalize()
	n := (s.Machines + ShardSize - 1) / ShardSize
	if n < 1 {
		n = 1
	}
	return n
}

// Shards reports the scenario's independent work units: one per
// (environment, population slice) cell, so even a single-slice fleet
// parallelizes across its environments on the engine's pool.
func (s Scenario) Shards() int {
	s = s.Normalize()
	return len(s.Envs) * s.popShards()
}

// HostRange returns the global host index range [lo, hi) of population
// slice i, balanced to within one host.
func (s Scenario) HostRange(i int) (lo, hi int) {
	s = s.Normalize()
	n := s.popShards()
	base, rem := s.Machines/n, s.Machines%n
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}
