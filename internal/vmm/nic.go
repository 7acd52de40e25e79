package vmm

import (
	"vmdg/internal/guestos"
	"vmdg/internal/hw"
	"vmdg/internal/sim"
)

// serviceQueue is a single-server FIFO queue with caller-supplied service
// times — the shape of both a device-emulation path and a userspace NAT
// proxy. A non-zero capacity bounds the number of items awaiting service
// (a proxy's socket buffer); arrivals beyond it are dropped.
type serviceQueue struct {
	s         *sim.Simulator
	busyUntil sim.Time
	cap       int // 0 = unbounded
	queued    int
	Served    uint64
	Dropped   uint64
}

// enqueue schedules f to fire once the server has processed it, service
// time d, FIFO behind earlier items. It reports false, and the NIC's
// pool takes f back, when the queue is full.
func (q *serviceQueue) enqueue(d sim.Time, f *frame) bool {
	if q.cap > 0 && q.queued >= q.cap {
		q.Dropped++
		f.nic.recycle(f)
		return false
	}
	start := q.s.Now()
	if q.busyUntil > start {
		start = q.busyUntil
	}
	q.busyUntil = start + d
	q.Served++
	q.queued++
	q.s.Schedule(q.busyUntil, "svcq", f)
	return true
}

// frameStage is where a frame is on its way through a VirtualNIC.
type frameStage uint8

const (
	txQueued frameStage = iota // in the device path toward the LAN
	txWire                     // on the tx link
	rxWire                     // on the rx link
	rxQueued                   // in the device path up into the guest
)

// frame carries one packet through a VirtualNIC's service queues and
// links. It is the sim.Caller of each hop, and the NIC recycles it once
// the packet is delivered or dropped, so a packet in flight allocates
// nothing at steady state.
type frame struct {
	nic   *VirtualNIC
	stage frameStage
	p     guestos.Packet
}

// Fire implements sim.Caller: the frame finished its current hop.
func (f *frame) Fire(sim.Time) {
	n := f.nic
	switch f.stage {
	case txQueued:
		n.txq.queued--
		f.stage = txWire
		n.tx.Transmit(f.p.IPBytes, f)
	case txWire:
		n.deliver(f)
	case rxWire:
		n.FramesIn++
		n.vm.chargeEmulation(n.vm.Prof.NetCPUPerFrame)
		f.stage = rxQueued
		n.rxq.enqueue(n.serviceTime(f.p.IPBytes), f)
	case rxQueued:
		n.rxq.queued--
		n.deliver(f)
	}
}

// VirtualNIC implements guestos.NetDevice. In bridged mode each direction
// has its own emulation queue in front of the physical link; in NAT mode
// both directions share one proxy queue — the single-server bottleneck
// that collapses NAT throughput in Figure 4.
type VirtualNIC struct {
	vm *VM
	tx *hw.Link // guest -> LAN
	rx *hw.Link // LAN -> guest

	txq, rxq *serviceQueue
	natq     *serviceQueue // shared, NAT mode only

	free []*frame // recycled frames

	// Stats
	FramesOut, FramesIn uint64
}

func newVirtualNIC(vm *VM, tx, rx *hw.Link) *VirtualNIC {
	s := vm.hostOS.Sim
	n := &VirtualNIC{vm: vm, tx: tx, rx: rx}
	if vm.Prof.NetMode == NetNAT {
		n.natq = &serviceQueue{s: s, cap: natQueueFrames}
		n.txq, n.rxq = n.natq, n.natq
	} else {
		n.txq = &serviceQueue{s: s}
		n.rxq = &serviceQueue{s: s}
	}
	return n
}

// newFrame draws a frame for p from the pool.
func (n *VirtualNIC) newFrame(stage frameStage, p guestos.Packet) *frame {
	var f *frame
	if k := len(n.free); k > 0 {
		f = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		f = &frame{nic: n}
	}
	f.stage, f.p = stage, p
	return f
}

// recycle returns f to the pool.
func (n *VirtualNIC) recycle(f *frame) {
	f.p = guestos.Packet{}
	n.free = append(n.free, f)
}

// deliver hands f's packet to its endpoint. The frame goes back to the
// pool first, because the delivery may send again.
func (n *VirtualNIC) deliver(f *frame) {
	p := f.p
	n.recycle(f)
	p.To.Deliver(p)
}

// serviceTime is the emulation/proxy cost for one frame.
func (n *VirtualNIC) serviceTime(ipBytes int64) sim.Time {
	p := &n.vm.Prof
	return p.NetPerFrame + sim.Time(int64(p.NetPerByte)*ipBytes)
}

// SendSegment implements guestos.NetDevice: device path, then the wire.
// Frames the proxy queue cannot hold are dropped, as a real NAT's socket
// buffer does under UDP overload.
func (n *VirtualNIC) SendSegment(p guestos.Packet) {
	n.FramesOut++
	n.vm.chargeEmulation(n.vm.Prof.NetCPUPerFrame)
	n.txq.enqueue(n.serviceTime(p.IPBytes), n.newFrame(txQueued, p))
}

// Drops reports frames lost to a full proxy queue.
func (n *VirtualNIC) Drops() uint64 {
	var d uint64
	d += n.txq.Dropped
	if n.rxq != n.txq {
		d += n.rxq.Dropped
	}
	return d
}

// ReturnSegment implements guestos.NetDevice: the wire, then the device
// path back up into the guest.
func (n *VirtualNIC) ReturnSegment(p guestos.Packet) {
	n.rx.Transmit(p.IPBytes, n.newFrame(rxWire, p))
}
