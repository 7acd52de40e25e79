package hw

import (
	"fmt"

	"vmdg/internal/sim"
)

// Disk models a commodity 2008-era SATA drive with a FIFO request queue.
// Service time for a request is a positioning cost (full seek for random
// access, track-to-track for sequential continuation) plus transfer time at
// platter bandwidth, with multiplicative jitter from the machine RNG.
type Disk struct {
	// SeekLatency is the average random positioning cost (seek + half a
	// rotation). ~11 ms for a 7200 rpm desktop drive.
	SeekLatency sim.Time
	// SeqLatency is the positioning cost when the request continues the
	// previous one on the same file.
	SeqLatency sim.Time
	// BandwidthBps is the sustained media transfer rate in bytes/second.
	BandwidthBps float64
	// JitterRel is the relative stddev applied to each service time.
	JitterRel float64

	s   *sim.Simulator
	rng *sim.RNG

	busyUntil sim.Time
	lastFile  string
	lastEnd   int64

	// Stats
	Reads, Writes uint64
	BytesRead     int64
	BytesWritten  int64
	totalBusy     sim.Time
}

// DesktopSATA returns a drive typical of the paper's 2007-era testbed:
// ~11 ms random access, ~60 MB/s sustained transfer.
func DesktopSATA(s *sim.Simulator, rng *sim.RNG) *Disk {
	return &Disk{
		SeekLatency:  11 * sim.Millisecond,
		SeqLatency:   300 * sim.Microsecond,
		BandwidthBps: 60e6,
		JitterRel:    0.05,
		s:            s,
		rng:          rng,
	}
}

// Submit enqueues a request and fires done, as a "disk-complete" event,
// when the request completes. Requests are serviced FIFO.
func (d *Disk) Submit(file string, offset, bytes int64, write bool, done sim.Caller) {
	if bytes < 0 {
		panic(fmt.Sprintf("hw: negative disk request size %d", bytes))
	}
	pos := d.SeekLatency
	if file == d.lastFile && offset == d.lastEnd {
		pos = d.SeqLatency
	}
	transfer := sim.FromSeconds(float64(bytes) / d.BandwidthBps)
	service := sim.Time(float64(pos+transfer) * d.rng.Jitter(d.JitterRel))
	if service < sim.Microsecond {
		service = sim.Microsecond
	}

	start := d.s.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	completion := start + service
	d.busyUntil = completion
	d.lastFile = file
	d.lastEnd = offset + bytes
	d.totalBusy += service

	if write {
		d.Writes++
		d.BytesWritten += bytes
	} else {
		d.Reads++
		d.BytesRead += bytes
	}
	d.s.Schedule(completion, "disk-complete", done)
}

// QueueDelay reports how long a request submitted now would wait before
// service begins.
func (d *Disk) QueueDelay() sim.Time {
	if d.busyUntil > d.s.Now() {
		return d.busyUntil - d.s.Now()
	}
	return 0
}

// Utilization returns the fraction of elapsed virtual time the disk has
// spent servicing requests.
func (d *Disk) Utilization() float64 {
	if d.s.Now() == 0 {
		return 0
	}
	return float64(d.totalBusy) / float64(d.s.Now())
}
