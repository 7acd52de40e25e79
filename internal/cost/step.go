package cost

import (
	"fmt"

	"vmdg/internal/sim"
)

// StepKind discriminates the variants of a Step.
type StepKind int

// Step kinds. Compute steps burn CPU; the I/O kinds block the issuing
// thread until the corresponding device operation completes; Sleep blocks
// for virtual time; Clock samples the (possibly drifting) local clock.
const (
	StepCompute StepKind = iota
	StepDiskRead
	StepDiskWrite
	StepDiskSync // barrier: flush outstanding writes to the platter
	StepNetSend
	StepNetRecv
	StepSleep
	StepClock
	// StepHalt parks the executing CPU until an external wake (a device
	// interrupt). Guest kernels emit it from their idle loop.
	StepHalt
	// StepDropCaches discards clean page-cache contents (the
	// `drop_caches` administrative action I/O benchmarks take between
	// their write and read phases).
	StepDropCaches
)

var stepKindNames = [...]string{
	"compute", "disk-read", "disk-write", "disk-sync",
	"net-send", "net-recv", "sleep", "clock", "halt", "drop-caches",
}

func (k StepKind) String() string {
	if k < 0 || int(k) >= len(stepKindNames) {
		return fmt.Sprintf("StepKind(%d)", int(k))
	}
	return stepKindNames[k]
}

// Step is one replayable unit of program behaviour.
type Step struct {
	Kind   StepKind
	Cycles float64  // StepCompute: cycle budget at native CPI
	Mix    Mix      // StepCompute: class mix of those cycles
	Bytes  int64    // disk/net kinds: payload size
	File   string   // disk kinds: file identity within the guest FS
	Offset int64    // disk kinds: byte offset
	Conn   int      // net kinds: connection/flow identifier
	Dur    sim.Time // StepSleep: duration
}

func (s Step) String() string {
	switch s.Kind {
	case StepCompute:
		return fmt.Sprintf("compute{%.0fcy %v}", s.Cycles, s.Mix)
	case StepDiskRead, StepDiskWrite:
		return fmt.Sprintf("%v{%s@%d %dB}", s.Kind, s.File, s.Offset, s.Bytes)
	case StepNetSend, StepNetRecv:
		return fmt.Sprintf("%v{conn%d %dB}", s.Kind, s.Conn, s.Bytes)
	case StepSleep:
		return fmt.Sprintf("sleep{%v}", s.Dur)
	default:
		return s.Kind.String()
	}
}

// Profile is a finite step stream plus summary totals, the unit of exchange
// between benchmark capture and simulator replay.
type Profile struct {
	Name  string
	Steps []Step
}

// TotalCycles sums the compute budget across all steps.
func (p *Profile) TotalCycles() float64 {
	var c float64
	for _, s := range p.Steps {
		if s.Kind == StepCompute {
			c += s.Cycles
		}
	}
	return c
}

// TotalDiskBytes sums read+write payloads.
func (p *Profile) TotalDiskBytes() (read, written int64) {
	for _, s := range p.Steps {
		switch s.Kind {
		case StepDiskRead:
			read += s.Bytes
		case StepDiskWrite:
			written += s.Bytes
		}
	}
	return read, written
}

// TotalNetBytes sums sent+received payloads.
func (p *Profile) TotalNetBytes() (sent, received int64) {
	for _, s := range p.Steps {
		switch s.Kind {
		case StepNetSend:
			sent += s.Bytes
		case StepNetRecv:
			received += s.Bytes
		}
	}
	return sent, received
}

// OverallMix returns the cycle-weighted mix across all compute steps.
func (p *Profile) OverallMix() Mix {
	var mix Mix
	var cycles float64
	for _, s := range p.Steps {
		if s.Kind == StepCompute {
			mix = Blend(mix, cycles, s.Mix, s.Cycles)
			cycles += s.Cycles
		}
	}
	if cycles == 0 {
		return Mix{Int: 1}
	}
	return mix
}

// Program yields steps one at a time; the simulated thread executes them in
// order and terminates when ok is false. Implementations must be
// deterministic: the sequence may depend only on construction parameters.
type Program interface {
	Next() (step Step, ok bool)
}

// Replay plays a profile's steps in order for a number of laps, or
// forever. It only reads the profile, so one profile, memoized or not,
// can back any number of replays.
type Replay struct {
	profile *Profile
	pos     int
	laps    int // laps to play; negative plays forever
	// Laps counts completed traversals, letting experiments measure
	// throughput of an endless worker.
	Laps int
}

// Iter returns a Program that plays p's steps once.
func (p *Profile) Iter() *Replay { return p.Repeat(1) }

// Repeat returns a Program that plays p's steps n times end to end.
func (p *Profile) Repeat(n int) *Replay {
	if n < 0 {
		panic(fmt.Sprintf("cost: Repeat(%d)", n))
	}
	return &Replay{profile: p, laps: n}
}

// Loop returns a Program that cycles through p's steps indefinitely.
// It panics on an empty profile, which would otherwise spin the simulator.
func Loop(p *Profile) *Replay {
	if len(p.Steps) == 0 {
		panic("cost: Loop over empty profile")
	}
	return &Replay{profile: p, laps: -1}
}

// Next implements Program.
func (r *Replay) Next() (Step, bool) {
	steps := r.profile.Steps
	if r.Laps == r.laps || len(steps) == 0 {
		return Step{}, false
	}
	s := steps[r.pos]
	r.pos++
	if r.pos == len(steps) {
		r.pos = 0
		r.Laps++
	}
	return s, true
}
