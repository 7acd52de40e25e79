package hw

import (
	"fmt"

	"vmdg/internal/sim"
)

// Ethernet frame constants for a Fast Ethernet LAN. A 1500-byte IP MTU
// carries 1460 bytes of TCP payload; on the wire each frame additionally
// pays Ethernet header+FCS, preamble and inter-frame gap.
const (
	MTU              = 1500 // IP MTU, bytes
	TCPHeaderBytes   = 40   // IP (20) + TCP (20), no options
	UDPHeaderBytes   = 28   // IP (20) + UDP (8)
	EthernetOverhead = 38   // 14 hdr + 4 FCS + 8 preamble + 12 IFG
	MSS              = MTU - TCPHeaderBytes
)

// Link is one direction of a switched full-duplex Fast Ethernet path
// between two stations. Frames serialize at line rate and arrive after a
// propagation+switching delay; the transmitter is busy for the
// serialization time, modelling NIC back-pressure.
type Link struct {
	// BandwidthBps is the line rate in bits/second (1e8 for Fast Ethernet).
	BandwidthBps float64
	// PropDelay covers propagation plus one store-and-forward switch hop.
	PropDelay sim.Time

	s         *sim.Simulator
	busyUntil sim.Time

	// Stats
	Frames    uint64
	WireBytes int64
}

// FastEthernet returns one direction of a 100 Mbps switched LAN path.
func FastEthernet(s *sim.Simulator) *Link {
	return &Link{BandwidthBps: 100e6, PropDelay: 60 * sim.Microsecond, s: s}
}

// SerializationTime returns the wire occupancy of a frame carrying
// payload bytes of IP payload (header bytes already included by caller).
func (l *Link) SerializationTime(wireBytes int64) sim.Time {
	return sim.FromSeconds(float64(wireBytes*8) / l.BandwidthBps)
}

// Transmit sends a frame carrying an IP packet of ipBytes, headers
// included (the Ethernet overhead is added here), and schedules deliver
// at the receiver when the frame arrives; a nil deliver schedules
// nothing. It returns the time at which the transmitter becomes free to
// send the next frame. A packet larger than the MTU panics: the guest
// stack segments before it transmits.
func (l *Link) Transmit(ipBytes int64, deliver sim.Caller) sim.Time {
	if ipBytes <= 0 || ipBytes > MTU {
		panic(fmt.Sprintf("hw: IP packet of %d bytes outside 1..%d, the MTU", ipBytes, MTU))
	}
	wire := ipBytes + EthernetOverhead
	ser := l.SerializationTime(wire)

	start := l.s.Now()
	if l.busyUntil > start {
		start = l.busyUntil
	}
	l.busyUntil = start + ser
	l.Frames++
	l.WireBytes += wire

	arrive := l.busyUntil + l.PropDelay
	if deliver != nil {
		l.s.Schedule(arrive, "frame-deliver", deliver)
	}
	return l.busyUntil
}

// Backlog reports how long a frame submitted now would wait before its
// first bit hits the wire.
func (l *Link) Backlog() sim.Time {
	if l.busyUntil > l.s.Now() {
		return l.busyUntil - l.s.Now()
	}
	return 0
}

// TheoreticalTCPGoodputBps returns the best-case TCP payload rate of the
// link: line rate discounted by per-MSS framing overhead. For 100 Mbps and
// a 1460-byte MSS this is ≈ 97.2 Mbps of application payload when the
// reverse path carries only ACKs — matching the paper's native 97.60 Mbps
// within measurement noise.
func (l *Link) TheoreticalTCPGoodputBps() float64 {
	frame := float64(MSS + TCPHeaderBytes + EthernetOverhead)
	return l.BandwidthBps * float64(MSS) / frame
}
