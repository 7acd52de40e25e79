package grid

import (
	"fmt"

	"vmdg/internal/boinc"
	"vmdg/internal/sim"
	"vmdg/internal/vmm"
)

// This file is the per-host state machine of the fleet simulator: a
// coarse-grained volunteer machine over (powered, owner-active) whose
// work-unit progress accrues at the calibrated rate of its (class,
// environment) pair.
//
// Hosts have no struct of their own — every method here is a hostSlab
// method taking the host's slice-local index i (see slab.go for the
// layout rationale). The bodies are otherwise the literal pre-slab host
// methods: same draws from the same RNG streams in the same order, same
// event schedule, so a shard's output is bit-identical to the old
// array-of-structs loop.

// rate is host i's current science rate in chunks/second.
func (s *hostSlab) rate(i int32) float64 {
	if s.active[i] {
		return s.cal(i).ActiveChunksPerSec
	}
	return s.cal(i).IdleChunksPerSec
}

// accrue brings progress up to now at the prevailing rate. Under a
// time-free policy (env.batch) it also settles every unit completion
// the window contains — see settle.
func (s *hostSlab) accrue(i int32, now sim.Time) {
	if s.env.batch {
		s.settle(i, now)
		return
	}
	if s.on[i] && s.hasWork[i] {
		s.progress[i] += s.rate(i) * (now - s.accrued[i]).Seconds()
		if s.progress[i] > float64(s.wu[i].Chunks) {
			s.progress[i] = float64(s.wu[i].Chunks)
		}
	}
	s.accrued[i] = now
}

// settle advances progress across [accrued, now] — a window of
// constant rate, since every rate change passes through accrue first —
// submitting each unit the window completes at its exact completion
// instant and requesting the next, with no simulator events. Only
// hosts under a timeFree policy settle: the server calls happen in
// phase-boundary order rather than global completion-time order, which
// such a policy's statistics provably cannot observe. A working day of
// an always-on host costs ~60 completion events on the queue; settling
// makes it a handful of arithmetic iterations inside events the host
// fires anyway.
func (s *hostSlab) settle(i int32, now sim.Time) {
	if s.on[i] && s.hasWork[i] {
		rate := s.rate(i)
		for {
			remaining := float64(s.wu[i].Chunks) - s.progress[i]
			gain := rate * (now - s.accrued[i]).Seconds()
			if gain < remaining {
				s.progress[i] += gain
				break
			}
			at := s.accrued[i] + sim.FromSeconds(remaining/rate)
			if at > now {
				at = now // FromSeconds rounding must not move time forward
			}
			s.submit(i, at)
			s.ckpt[i] = nil
			s.hasWork[i] = false
			s.requestWork(i, at) // resets progress and sets accrued = at
		}
	}
	s.accrued[i] = now
}

// submit reports the current unit's result (corrupted when faulty).
func (s *hostSlab) submit(i int32, now sim.Time) {
	result := resultFor(s.wu[i])
	if s.faulty[i] {
		result = int(s.envRNG[i].Uint64() % resultSpace)
		if result == resultFor(s.wu[i]) {
			result = (result + 1) % resultSpace
		}
	}
	s.env.policy.Submit(s.gid(i), s.wu[i], result, now)
}

// flushPhase closes the owner phase that ran since phaseStart: active
// phases owe one interactive burst per whole second. The bursts are
// only counted here; drainBursts settles them into the latency
// histogram in aggregate.
func (s *hostSlab) flushPhase(i int32, now sim.Time) {
	if s.on[i] && s.active[i] {
		dur := (now - s.phaseStart[i]).Seconds()
		s.env.stats.ActiveSeconds += dur
		s.pendingBursts[i] += int64(dur)
	}
	s.phaseStart[i] = now
}

// drainBursts settles host i's accumulated burst count into the
// latency histogram with one seeded multinomial over the calibration's
// binned burst distribution. Because multinomials are additive in n,
// draining once per host is distributed identically to sampling every
// burst the moment its phase closed — at a cost independent of
// simulated time. This is the per-host reference path; shards normally
// drain in class groups (drainBurstsGrouped).
func (s *hostSlab) drainBursts(i int32) {
	if s.pendingBursts[i] > 0 {
		s.env.stats.Latency.AddMultinomial(&s.envRNG[i], s.cal(i).burstDist(), s.pendingBursts[i])
		s.pendingBursts[i] = 0
	}
}

// drainBurstsGrouped settles the whole shard's accumulated bursts with
// one multinomial chain per class instead of one per host: every host
// of a class draws from the same binned calibration distribution, and
// multinomials are additive in n, so summing the class's pending counts
// and settling them in one AddMultinomial call is distributed
// identically to the per-host path — it just replaces ~ShardSize
// binomial walks with one per class. The chain runs on its own stream
// derived from (seed, env, slice), never a host RNG, so grouping cannot
// perturb any other draw; classes settle in class-index order, keeping
// the result a pure function of the shard. The per-host and grouped
// paths produce different (equally valid) Latency.Counts bytes — the
// equivalence is distributional, pinned by KS/percentile tests, with
// the exact total burst count conserved.
func (s *hostSlab) drainBurstsGrouped() {
	totals := make([]int64, len(s.classes))
	for i := int32(0); int(i) < s.n; i++ {
		totals[s.classIdx[i]] += s.pendingBursts[i]
		s.pendingBursts[i] = 0
	}
	rng := sim.RNG{}
	rng.SetState(splitmix(envSeed(s.env.scn.Seed, s.env.prof.Name, -1-s.env.slice) ^ 0x6275727374)) // "burst"
	for ci, n := range totals {
		if n > 0 {
			s.env.stats.Latency.AddMultinomial(&rng, s.cals[ci].burstDist(), n)
		}
	}
}

// scheduleCompletion (re)schedules the predicted completion of the
// current unit. Call after every rate or assignment change; the pending
// event is moved in place when possible. Batch-settled hosts never arm
// completion events.
func (s *hostSlab) scheduleCompletion(i int32, now sim.Time) {
	if s.env.batch {
		return
	}
	if !s.on[i] || !s.hasWork[i] {
		s.completion[i].Cancel()
		s.completion[i] = sim.Handle{}
		return
	}
	remaining := float64(s.wu[i].Chunks) - s.progress[i]
	if remaining < 0 {
		remaining = 0
	}
	// A unit too big to finish before the end of time never completes.
	eta := sim.AddSeconds(now, remaining/s.rate(i))
	if !s.env.sim.Reschedule(s.completion[i], eta) {
		s.completion[i] = s.env.sim.Schedule(eta, "complete", (*completeArm)(s.arm(i)))
	}
}

// complete fires when the predicted completion instant arrives: the
// host submits its result and requests the next unit.
func (s *hostSlab) complete(i int32, now sim.Time) {
	s.completion[i] = sim.Handle{}
	s.accrue(i, now)
	s.submit(i, now)
	s.ckpt[i] = nil
	s.hasWork[i] = false
	if s.env.mig != nil {
		s.migUnitDone(i)
	}
	s.requestWork(i, now)
	s.scheduleCompletion(i, now)
}

// requestWork asks the shard's server for work: the oldest checkpoint
// awaiting migration if the server holds one (downloading it costs
// modeled transfer time), a fresh unit otherwise.
func (s *hostSlab) requestWork(i int32, now sim.Time) {
	if m := s.env.mig; m != nil {
		if mu, ok := m.pop(); ok {
			s.beginMigDownload(i, now, mu)
			return
		}
	}
	s.wu[i] = s.env.policy.Assign(s.gid(i), now)
	s.hasWork[i] = true
	s.progress[i] = 0
	s.accrued[i] = now
}

// powerOn boots the machine: restore the held checkpoint or fetch
// fresh work, set the owner's presence, and — under churn — schedule
// the session's end. ownerPresent is true when the owner just sat down
// to switch the machine on (every mid-run power-on); the t=0 boot
// passes a stationary draw instead, so short horizons do not measure a
// synchronized everyone-active start transient.
func (s *hostSlab) powerOn(i int32, now sim.Time, ownerPresent bool) {
	s.on[i] = true
	s.onStart[i] = now
	s.accrued[i] = now
	if m := s.env.mig; m != nil {
		s.migReturn(i, now, m)
	}
	switch {
	case s.ckpt[i] != nil:
		if err := s.restoreCheckpoint(i); err != nil {
			// A checkpoint this host encoded itself cannot fail to
			// decode; treat corruption as a model bug.
			panic(fmt.Sprintf("grid: %s: %v", hostID(s.gid(i)), err))
		}
		s.env.stats.Restores++
	case !s.hasWork[i]:
		s.requestWork(i, now)
	}
	s.active[i] = ownerPresent
	s.phaseStart[i] = now
	s.scheduleFlip(i, now)
	s.scheduleCompletion(i, now)
	if s.env.scn.Churn {
		s.env.sim.Schedule(now+s.exp(i, s.class(i).MeanOnMin), "power-off", (*powerOffArm)(s.arm(i)))
	}
}

// stationaryActive draws the owner's long-run presence probability.
func (s *hostSlab) stationaryActive(i int32) bool {
	c := s.class(i)
	p := c.MeanActiveMin / (c.MeanActiveMin + c.MeanIdleMin)
	return s.ownerRNG[i].Float64() < p
}

// powerOff evicts the VM: progress since the worker's last periodic
// checkpoint is lost, and the rest leaves the machine as an encoded
// vmm.Checkpoint carrying the boinc progress file.
func (s *hostSlab) powerOff(i int32, now sim.Time) {
	s.accrue(i, now)
	s.flushPhase(i, now)
	s.env.stats.OnSeconds += (now - s.onStart[i]).Seconds()
	s.completion[i].Cancel()
	s.completion[i] = sim.Handle{}
	s.flip[i].Cancel()
	s.flip[i] = sim.Handle{}
	s.on[i] = false
	if s.hasWork[i] && s.progress[i] > 0 {
		s.env.stats.Evictions++
		every := s.wu[i].CheckpointEvery
		if every < 1 {
			every = 1
		}
		kept := float64(int(s.progress[i])/every) * float64(every)
		s.env.stats.LostChunks += int64(s.progress[i] - kept)
		s.progress[i] = kept
	}
	if s.hasWork[i] {
		s.ckpt[i] = s.encodeCheckpoint(i, now)
	}
	if m := s.env.mig; m != nil {
		s.migDepart(i, now, m)
	}
	s.env.sim.Schedule(now+s.exp(i, s.class(i).MeanOffMin), "power-on", (*powerOnArm)(s.arm(i)))
}

// encodeCheckpoint captures host i's surviving state as a real VMM
// checkpoint whose payload is the BOINC progress file.
func (s *hostSlab) encodeCheckpoint(i int32, now sim.Time) []byte {
	ck := &vmm.Checkpoint{
		VMName:       hostID(s.gid(i)),
		ProfileName:  s.prof().Name,
		TakenAtHost:  now,
		TakenAtGuest: now,
		Payload: boinc.Progress{
			WorkUnit:   s.wu[i],
			ChunksDone: int(s.progress[i]),
		}.Marshal(),
	}
	b, err := ck.Encode()
	if err != nil {
		panic(fmt.Sprintf("grid: %s: encoding checkpoint: %v", hostID(s.gid(i)), err)) // plain data cannot fail
	}
	return b
}

// restoreCheckpoint resumes the unit carried by the held checkpoint.
func (s *hostSlab) restoreCheckpoint(i int32) error {
	ck, err := vmm.DecodeCheckpoint(s.ckpt[i])
	if err != nil {
		return err
	}
	if ck.ProfileName != s.prof().Name {
		return fmt.Errorf("checkpoint from profile %s restored under %s", ck.ProfileName, s.prof().Name)
	}
	prog, err := boinc.UnmarshalProgress(ck.Payload)
	if err != nil {
		return err
	}
	s.wu[i] = prog.WorkUnit
	s.progress[i] = float64(prog.ChunksDone)
	s.hasWork[i] = true
	s.ckpt[i] = nil
	return nil
}

// scheduleFlip arms the next owner active/idle transition.
func (s *hostSlab) scheduleFlip(i int32, now sim.Time) {
	mean := s.class(i).MeanIdleMin
	if s.active[i] {
		mean = s.class(i).MeanActiveMin
	}
	s.flip[i] = s.env.sim.Schedule(now+s.exp(i, mean), "owner-flip", (*flipArm)(s.arm(i)))
}

// doFlip toggles owner activity, which changes the science rate.
func (s *hostSlab) doFlip(i int32, now sim.Time) {
	s.flip[i] = sim.Handle{}
	s.accrue(i, now)
	s.flushPhase(i, now)
	s.active[i] = !s.active[i]
	s.scheduleFlip(i, now)
	s.scheduleCompletion(i, now)
}

// finalize settles accounting at the horizon: a still-powered host
// closes its open phase and power session. Accumulated bursts are
// drained afterwards, over all hosts at once (see drainBurstsGrouped).
func (s *hostSlab) finalize(i int32, now sim.Time) {
	if s.on[i] {
		s.accrue(i, now)
		s.flushPhase(i, now)
		s.env.stats.OnSeconds += (now - s.onStart[i]).Seconds()
	}
}

// exp draws an exponential duration with the given mean in minutes
// from host i's owner stream.
func (s *hostSlab) exp(i int32, meanMin float64) sim.Time {
	return sim.FromSeconds(s.ownerRNG[i].Exp(meanMin * 60))
}
