package grid

import (
	"fmt"
	"sync"

	"vmdg/internal/boinc"
	"vmdg/internal/cost"
	"vmdg/internal/hostos"
	"vmdg/internal/hw"
	"vmdg/internal/sim"
	"vmdg/internal/vmm"
)

// interactiveBurst is one interactive task: 40 ms of mixed compute
// issued once per second — an editor keystroke storm, a page render.
// It matches the burst the original fleet command used, so the
// intrusiveness numbers stay comparable.
const interactiveBurst = 0.040 * 2.4e9

// Calibration is the detailed-stack measurement for one (class,
// environment) pair: the sandboxed worker's science rate with the
// owner active and away, and the empirical interactive-burst latency
// distribution while the VM runs.
type Calibration struct {
	// ActiveChunksPerSec / IdleChunksPerSec are the worker's chunk
	// rates with the owner hammering the machine vs away from it.
	ActiveChunksPerSec float64
	IdleChunksPerSec   float64
	// BurstMs holds the measured interactive-burst latencies (ms)
	// under the running VM; the fleet resamples from it.
	BurstMs []float64
	// bins is BurstMs collapsed onto the latency histogram's bin
	// layout — the categorical distribution aggregate burst sampling
	// draws its multinomials from. Derived once at calibration time and
	// shared read-only by every host of the (class, environment) pair.
	bins []burstBin
}

// burstDist returns the binned burst distribution, deriving it on the
// fly for hand-built calibrations (tests) that skip calibrate.
func (c *Calibration) burstDist() []burstBin {
	if c.bins != nil {
		return c.bins
	}
	return binBursts(c.BurstMs)
}

// calKey identifies one memoized calibration.
type calKey struct {
	class, env string
	seed       uint64
	ckptEvery  int
	quick      bool
}

// calCache maps each calKey to the sync.OnceValues closure that runs its
// micro-simulation on first use and shares the result across every shard
// in the process. A calibration that panics panics again for every later
// caller.
var calCache sync.Map // calKey -> func() (Calibration, error)

// calibrationFor returns the memoized calibration for (class, prof),
// running the detailed micro-simulation on first use. The value is a
// pure function of the key, so which goroutine computes it never
// matters.
func calibrationFor(class *Class, prof vmm.Profile, seed uint64, ckptEvery int, quick bool) (Calibration, error) {
	k := calKey{class: class.Name, env: prof.Name, seed: seed, ckptEvery: ckptEvery, quick: quick}
	f, ok := calCache.Load(k)
	if !ok {
		f, _ = calCache.LoadOrStore(k, sync.OnceValues(func() (Calibration, error) {
			return calibrate(class, prof, seed, ckptEvery, quick)
		}))
	}
	return f.(func() (Calibration, error))()
}

// calibrate runs the full hw/hostos/vmm/boinc stack for one machine of
// the class under the environment: a warmup, a window with the owner
// issuing bursts once per second, then a window with the owner away.
func calibrate(class *Class, prof vmm.Profile, seed uint64, ckptEvery int, quick bool) (Calibration, error) {
	warmup, window := 5*sim.Second, 45*sim.Second
	if quick {
		window = 12 * sim.Second
	}

	s := sim.New()
	mseed := splitmix(hostSeed(seed, 0) ^ envSeed(seed, class.Name+"/"+prof.Name, 1))
	mc, err := hw.NewMachine(s, hw.Config{CPU: class.CPU, Seed: mseed})
	if err != nil {
		return Calibration{}, fmt.Errorf("grid: calibrating %s/%s: %w", class.Name, prof.Name, err)
	}
	host := hostos.Boot(mc)

	vm, err := vmm.New(host, vmm.Config{Prof: prof})
	if err != nil {
		return Calibration{}, fmt.Errorf("grid: calibrating %s/%s: %w", class.Name, prof.Name, err)
	}
	// A work unit far too large to finish, checkpointing at the
	// fleet's real interval so the disk overhead is represented.
	wu := boinc.WorkUnit{ID: "cal", Seed: mseed, Chunks: 1 << 30, CheckpointEvery: ckptEvery}
	worker := boinc.NewWorker(boinc.Progress{WorkUnit: wu})
	vm.SpawnGuest("einstein", worker)
	vm.PowerOn(hostos.PrioIdle)

	own := &owner{host: host, user: host.NewProcess("user"), warmup: warmup, bursting: true}
	s.Schedule(s.Now()+100*sim.Millisecond, "user-start", own)

	chunks := func() float64 {
		return float64(worker.UnitsDone())*float64(wu.Chunks) + float64(worker.State.ChunksDone)
	}

	host.RunFor(warmup)
	c0 := chunks()
	host.RunFor(window)
	c1 := chunks()
	own.bursting = false // owner leaves; pending think-time events fizzle
	host.RunFor(window)
	c2 := chunks()
	vm.PowerOff()

	cal := Calibration{
		ActiveChunksPerSec: (c1 - c0) / window.Seconds(),
		IdleChunksPerSec:   (c2 - c1) / window.Seconds(),
		BurstMs:            own.bursts,
		bins:               binBursts(own.bursts),
	}
	if len(cal.BurstMs) == 0 {
		return Calibration{}, fmt.Errorf("grid: calibration of %s/%s produced no burst samples", class.Name, prof.Name)
	}
	if cal.IdleChunksPerSec <= 0 || cal.ActiveChunksPerSec <= 0 {
		return Calibration{}, fmt.Errorf("grid: calibration of %s/%s produced a non-positive chunk rate", class.Name, prof.Name)
	}
	return cal, nil
}

// owner is calibration's interactive workload: one burst, then a second
// of think time, for as long as bursting is on. It records each burst's
// latency once the warmup is over.
type owner struct {
	host     *hostos.OS
	user     *hostos.Process
	warmup   sim.Time
	bursting bool
	bursts   []float64
}

// Fire implements sim.Caller: the owner issues a burst.
func (o *owner) Fire(now sim.Time) {
	if !o.bursting {
		return
	}
	prog := &cost.Profile{Name: "burst", Steps: []cost.Step{
		{Kind: cost.StepCompute, Cycles: interactiveBurst, Mix: cost.Mix{Int: 0.5, Mem: 0.3, FP: 0.2}},
	}}
	th := o.host.Spawn(o.user, "burst", hostos.PrioNormal, prog.Iter())
	th.OnExit = func() {
		if end := o.host.Sim.Now(); end >= o.warmup {
			o.bursts = append(o.bursts, (end-now).Seconds()*1000)
		}
	}
	o.host.Sim.Schedule(now+sim.Second, "user-think", o)
}
