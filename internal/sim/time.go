package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, measured in integer nanoseconds since the
// start of the simulation. Integer nanoseconds keep event ordering exact and
// free of floating-point drift over long runs; at nanosecond resolution an
// int64 covers ~292 simulated years, far beyond any experiment here.
type Time int64

// Common durations expressed as Time deltas.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// MaxTime is the last instant Time can represent. An event scheduled
// there lies past the horizon of every RunUntil short of MaxTime.
const MaxTime Time = math.MaxInt64

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts t (as a delta) to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats the time with adaptive units for logs and traces.
func (t Time) String() string {
	switch {
	case t == math.MinInt64: // has no positive counterpart to negate into
		return fmt.Sprintf("%.6fs", t.Seconds())
	case t < 0:
		return fmt.Sprintf("-%v", -t)
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", t.Seconds())
	}
}

// FromSeconds converts floating-point seconds to a Time delta, rounding to
// the nearest nanosecond.
func FromSeconds(s float64) Time {
	if s < 0 {
		return -FromSeconds(-s)
	}
	return Time(s*float64(Second) + 0.5)
}

// AddSeconds returns t + FromSeconds(s) for a delay s >= 0, saturating
// at MaxTime when the sum passes the end of Time (including s = +Inf or
// NaN). Every sum that fits is bit-identical to t + FromSeconds(s).
// Schedulers use it for predicted instants that a degenerate rate can
// push arbitrarily far out: such an event lands at MaxTime, past the
// run's horizon, instead of wrapping into the past.
func AddSeconds(t Time, s float64) Time {
	if s < 0 {
		return t + FromSeconds(s)
	}
	ns := s*float64(Second) + 0.5 // FromSeconds' rounding
	if !(ns < 1<<63) {
		return MaxTime
	}
	if d := Time(ns); t <= MaxTime-d {
		return t + d
	}
	return MaxTime
}

// FromDuration converts a time.Duration to a Time delta.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }
