package netbench

import (
	"fmt"

	"vmdg/internal/cost"
	"vmdg/internal/sim"
)

// Defaults matching the paper's iperf invocation.
const (
	// StreamBytes is the default transfer size (10 MB).
	StreamBytes = 10 << 20
	// ConnID is the TCP connection identifier the profile uses; harnesses
	// must Dial this id before spawning the profile.
	ConnID = 1
	// appChunk is the per-write size of the sending application.
	appChunk = 64 << 10
)

// Profile captures the sender application: write StreamBytes into the
// socket in appChunk pieces. All transport behaviour (windowing, ACK
// pacing, device paths) happens live in the guest network stack during
// replay — throughput is an output of the simulation, not of this profile.
func Profile(total int64) *cost.Profile {
	if total <= 0 {
		panic(fmt.Sprintf("netbench: stream of %d bytes", total))
	}
	m := cost.NewMeter(fmt.Sprintf("netbench-%dMB", total>>20))
	for off := int64(0); off < total; off += appChunk {
		n := int64(appChunk)
		if total-off < n {
			n = total - off
		}
		m.NetSend(ConnID, n)
	}
	return m.Profile()
}

// UDPDatagram is the iperf -u payload size (fits one Ethernet frame).
const UDPDatagram = 1470

// UDPProfile returns an iperf -u sender: datagrams of UDPDatagram bytes
// paced to the offered bit rate for the given duration. Loss happens in
// the network (a bounded NAT proxy buffer), not in this program. A Meter
// captures one datagram's steps, a send and a sleep of one interval, and
// the program replays them once per datagram, so it holds three steps
// however long it runs.
func UDPProfile(offeredBps float64, duration sim.Time) cost.Program {
	if offeredBps <= 0 || duration <= 0 {
		panic("netbench: UDP profile needs positive rate and duration")
	}
	interval := sim.FromSeconds(UDPDatagram * 8 / offeredBps)
	if interval <= 0 {
		interval = sim.Microsecond
	}
	m := cost.NewMeter("netbench-udp-datagram")
	m.NetSend(ConnID, UDPDatagram)
	m.Sleep(interval)
	// One datagram per pass of for at := 0; at < duration; at += interval.
	return m.Profile().Repeat(int((duration-1)/interval + 1))
}

// Mbps converts a transfer of bytes over elapsed time into the megabits
// per second figure iperf reports.
func Mbps(bytes int64, elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) * 8 / elapsed.Seconds() / 1e6
}
