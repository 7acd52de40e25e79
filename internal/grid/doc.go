// Package grid scales the paper's motivating scenario — volunteer
// desktop machines donating cycles to a BOINC-style project through
// sandboxed virtual machines — from a handful of always-on hosts to
// fleets of tens of thousands with realistic availability churn.
//
// # Two-level simulation
//
// Simulating 10,000 hosts through the full micro-architectural stack
// (internal/hw scheduler rates, internal/hostos threads, internal/vmm
// device emulation) would cost minutes of wall clock per virtual
// minute. Instead the fleet runs a two-level model:
//
//   - Calibration. For every (host class, VM environment) pair that
//     appears in the population, one detailed micro-simulation is run
//     through the real stack: a machine of that class boots the host
//     OS, powers a VM with the environment's profile, and executes an
//     Einstein@home worker (internal/boinc) at idle priority while the
//     owner's interactive bursts arrive once per second. The
//     micro-simulation yields the VM's science rate (chunks/second)
//     with the owner active and away, plus the empirical distribution
//     of interactive-burst latencies — the paper's intrusiveness
//     metric. Calibrations are memoized per process and are pure
//     functions of (class, profile, seed, checkpoint interval, quick),
//     so every shard that needs one observes identical values.
//
//   - Fleet. Each host is then a coarse state machine driven by the
//     same discrete-event kernel (internal/sim): power sessions and
//     owner activity alternate via exponential draws from the host's
//     own SplitMix64 stream and work-unit progress accrues at the
//     calibrated rate. Completions are predicted events, moved in
//     place (sim.Reschedule, pooled closure-free timers) when the rate
//     changes — or, under a policy whose statistics are call-order
//     invariant (fifo), settled arithmetically at phase boundaries
//     with no events at all. Interactive-burst latencies are not
//     resampled per simulated second: each host counts the bursts its
//     active phases owe and settles them with one seeded multinomial
//     over the calibration's binned latency distribution (see
//     ARCHITECTURE.md, "Aggregate burst sampling"), which is what
//     makes million-host, working-day horizons tractable.
//
// # Churn, checkpoints, eviction
//
// When a volunteer powers a machine off mid-work-unit, the VM is
// evicted: progress since the worker's last periodic checkpoint is
// lost, and the surviving state is captured as a real
// vmm.Checkpoint (Encode/Decode round-trip) whose payload is the
// boinc.Progress file — exactly what a migration of the sandbox would
// carry. When the owner returns, the host restores the checkpoint and
// resumes the same unit.
//
// # Checkpoint migration
//
// Scenario.Migration turns that transportable checkpoint into an
// actual migration over a modeled network (internal/netsim: per-class
// host access links, a Scenario.BandwidthMbps server frontend per
// population slice, max-min fair sharing). Under "on-departure" a
// departing host uploads its checkpoint so the server can re-place
// the unit — pull-based, oldest first — on the next volunteer to ask
// for work, which pays a download gap before resuming at the carried
// progress; under "eager" running hosts keep a server-side copy fresh
// with periodic incremental syncs, so departures migrate instantly
// from a copy that is up to one sync period stale. Migration never
// crosses a population slice, so shards stay pure and the worker-count
// determinism contract holds; "none" (the default) leaves the whole
// plane disengaged and is byte-identical to the pre-migration
// simulator (see ARCHITECTURE.md, "Checkpoint migration over the
// modeled network").
//
// # Sharding and determinism
//
// A fleet is partitioned into shards of at most ShardSize hosts. Host
// identity — hardware class, honesty, churn pattern — derives from
// the host's global index and the scenario seed, never from the shard
// layout, so the population is identical no matter how shards are cut
// or on how many workers they run. Each shard owns an independent
// event loop and project server; shard results are plain sums and
// fixed-bin histogram merges folded in shard order, which makes the
// merged fleet result bit-identical for any worker count. Owner
// behaviour (power and activity sessions) draws from an
// environment-independent stream, so the same volunteers churn the
// same way under every VM environment being compared.
//
// # Scheduling policies
//
// The per-shard project server hands out work through a pluggable
// Policy: plain FIFO issue, deadline-aware reissue of overdue units,
// or N-way replication with quorum validation (wrapping
// boinc.Project), which catches the configurable fraction of faulty
// hosts that return corrupted results. One deliberate deviation from
// internal/boinc: result values are a cheap deterministic surrogate
// (a hash of the unit seed) rather than the real FFT peak bin, so a
// 10k-host fleet does not spend its time in Cooley–Tukey butterflies;
// agreement semantics — what quorum validation consumes — are
// preserved.
//
// The deadline policy reissues the overdue unit with the lowest issue
// index without scanning the outstanding set. Every (re)assignment
// sets deadline = now + slack with a fixed slack and a call time that
// never decreases, so assignment order is deadline order: a FIFO holds
// the assigned units, expired ones move from its head into a min-heap
// keyed by issue index, and the heap's top is the unit a scan in issue
// order would pick (expired units are not in issue order among
// themselves, so the heap cannot be a second FIFO). Done units are
// skipped lazily.
//
// # Scenario families
//
// A Scenario describes one fleet; a Spec describes a family of them:
// a versioned, JSON-round-trippable document whose fields are named
// axes (lists of values). Spec.Points expands the cartesian product
// over every multi-value axis into concrete scenarios, each tagged
// with the axis values that select it — the declarative input the
// engine's sweep experiment runs, caches per point, and merges into
// one axis-keyed comparison.
package grid
