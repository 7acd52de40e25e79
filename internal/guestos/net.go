package guestos

import (
	"fmt"

	"vmdg/internal/hw"
	"vmdg/internal/sim"
)

// TCP/UDP kernel-path costs, in kernel-class operations per event.
const (
	tcpTxOps  = 2200 // segmentation, checksum, qdisc, driver doorbell
	tcpAckOps = 900  // ACK processing, window update, wake writer
	udpTxOps  = 1500
	udpRxOps  = 1200

	// defaultRcvWnd is the peer's advertised receive window; 64 KB is the
	// classic un-scaled maximum and matches 2008-era defaults.
	defaultRcvWnd = 64 << 10
	// defaultSndBuf is the local socket send buffer.
	defaultSndBuf = 64 << 10
	// initialCwnd per RFC 3390-era Linux: ~2 segments.
	initialCwnd = 2 * hw.MSS
	// peerProcDelay is the remote station's per-segment processing time
	// (an unloaded native Linux box running iperf -s).
	peerProcDelay = 20 * sim.Microsecond
	// delayedAckTimeout bounds how long the peer withholds an ACK for a
	// lone segment.
	delayedAckTimeout = 5 * sim.Millisecond
	// maxUDPPayload is the largest datagram whose IP packet fits the MTU.
	maxUDPPayload = hw.MTU - hw.UDPHeaderBytes
)

// NetStack is the guest's network layer.
type NetStack struct {
	kernel *Kernel
	dev    NetDevice
	tcp    map[int]*TCPConn
	udp    map[int]*UDPSocket
}

func newNetStack(k *Kernel, dev NetDevice) *NetStack {
	return &NetStack{kernel: k, dev: dev, tcp: make(map[int]*TCPConn), udp: make(map[int]*UDPSocket)}
}

func (ns *NetStack) device() NetDevice {
	if ns.dev == nil {
		panic("guestos: network operation with no NIC attached")
	}
	return ns.dev
}

// Dial creates TCP connection id to a fresh remote iperf-style sink.
func (ns *NetStack) Dial(id int) *TCPConn {
	if _, dup := ns.tcp[id]; dup {
		panic(fmt.Sprintf("guestos: duplicate TCP conn %d", id))
	}
	c := &TCPConn{
		stack:    ns,
		id:       id,
		sndCap:   defaultSndBuf,
		rwnd:     defaultRcvWnd,
		cwnd:     initialCwnd,
		ssthresh: defaultRcvWnd,
	}
	c.peer = &tcpPeer{conn: c}
	ns.tcp[id] = c
	return c
}

// Conn returns TCP connection id, or nil.
func (ns *NetStack) Conn(id int) *TCPConn { return ns.tcp[id] }

// send implements the StepNetSend path for guest threads: TCP when the
// id names a connection, a non-blocking datagram when it names a UDP
// socket (the iperf -u path).
func (ns *NetStack) send(g *GThread, id int, n int64) (blocked bool) {
	if c := ns.tcp[id]; c != nil {
		return c.appSend(g, n)
	}
	if u := ns.udp[id]; u != nil {
		for n > 0 {
			d := n
			if d > maxUDPPayload {
				d = maxUDPPayload
			}
			u.SendTo(Datagram{Bytes: d})
			n -= d
		}
		return false
	}
	panic(fmt.Sprintf("guestos: send on unknown conn %d", id))
}

// recv implements StepNetRecv. Only UDP sockets deliver inbound payload in
// this model (the TCP experiments are one-directional sends).
func (ns *NetStack) recv(g *GThread, id int, n int64) (blocked bool) {
	u := ns.udp[id]
	if u == nil {
		panic(fmt.Sprintf("guestos: recv on unknown udp socket %d", id))
	}
	return u.appRecv(g, n)
}

// TCPConn is a sender-side TCP connection to a remote sink. It models the
// pieces that set iperf throughput on a clean LAN — windowing, slow start,
// delayed ACKs, segmentation — and omits loss recovery (a switched
// full-duplex LAN with a 64 KB window cannot overrun the model's queues).
type TCPConn struct {
	stack *NetStack
	id    int
	peer  *tcpPeer

	sndCap int64 // socket buffer capacity
	sndBuf int64 // bytes queued, not yet segmented

	inflight int64 // bytes sent, not yet acked
	cwnd     int64
	ssthresh int64
	rwnd     int64

	writer     *GThread // blocked writer, if any
	writerWant int64    // bytes it still needs to enqueue

	// Stats / invariant inputs
	Queued   int64 // total bytes accepted from the app
	Acked    int64 // total bytes acked by the peer
	SegsSent uint64
	AcksRcvd uint64
}

// tcpAckEnd is the connection's end for the peer's ACKs.
type tcpAckEnd TCPConn

// Deliver implements Endpoint: an ACK reached the sender.
func (a *tcpAckEnd) Deliver(p Packet) { (*TCPConn)(a).onAck(p.N) }

// window is the current transmit limit.
func (c *TCPConn) window() int64 {
	if c.cwnd < c.rwnd {
		return c.cwnd
	}
	return c.rwnd
}

// appSend enqueues n bytes from the application, returning true if the
// thread blocked on buffer space.
func (c *TCPConn) appSend(g *GThread, n int64) (blocked bool) {
	if n <= 0 {
		return false
	}
	take := c.sndCap - c.sndBuf
	if take > n {
		take = n
	}
	c.sndBuf += take
	c.Queued += take
	n -= take
	c.trySend()
	if n > 0 {
		if c.writer != nil {
			panic("guestos: second writer on TCP conn")
		}
		c.writer = g
		c.writerWant = n
		return true
	}
	return false
}

// trySend emits segments while the window and buffer allow.
func (c *TCPConn) trySend() {
	for c.sndBuf > 0 && c.inflight+hw.MSS <= c.window() {
		seg := int64(hw.MSS)
		if c.sndBuf < seg {
			seg = c.sndBuf
		}
		c.sndBuf -= seg
		c.inflight += seg
		c.SegsSent++
		c.stack.kernel.charge(tcpTxOps)
		c.stack.device().SendSegment(Packet{IPBytes: seg + hw.TCPHeaderBytes, To: c.peer, N: seg})
		c.refillFromWriter()
	}
}

// refillFromWriter moves bytes from a blocked writer into freed buffer
// space, waking the writer once fully drained.
func (c *TCPConn) refillFromWriter() {
	if c.writer == nil {
		return
	}
	space := c.sndCap - c.sndBuf
	if space <= 0 {
		return
	}
	take := space
	if take > c.writerWant {
		take = c.writerWant
	}
	c.sndBuf += take
	c.Queued += take
	c.writerWant -= take
	if c.writerWant == 0 {
		g := c.writer
		c.writer = nil
		c.stack.kernel.makeRunnable(g)
		c.stack.kernel.interruptEntry()
	}
}

// onAck processes a cumulative ACK covering bytes.
func (c *TCPConn) onAck(bytes int64) {
	if bytes > c.inflight {
		panic(fmt.Sprintf("guestos: ack of %d exceeds inflight %d", bytes, c.inflight))
	}
	c.inflight -= bytes
	c.Acked += bytes
	c.AcksRcvd++
	c.stack.kernel.charge(tcpAckOps)
	// Window growth: exponential below ssthresh, ~1 MSS/RTT above.
	if c.cwnd < c.ssthresh {
		c.cwnd += bytes
	} else {
		c.cwnd += int64(float64(hw.MSS) * float64(bytes) / float64(c.cwnd))
	}
	if c.cwnd > c.rwnd {
		c.cwnd = c.rwnd
	}
	c.trySend()
	c.refillFromWriter()
}

// Drained reports whether every byte accepted from the app has been acked.
func (c *TCPConn) Drained() bool {
	return c.sndBuf == 0 && c.inflight == 0 && c.writer == nil
}

// tcpPeer is the remote iperf server: it sinks data and generates delayed
// ACKs (every second segment, or after a short timeout for a lone one).
type tcpPeer struct {
	conn    *TCPConn
	unacked int64
	pending int // segments since last ACK
	delayEv sim.Handle
	// acks holds the byte counts of the ACKs waiting out peerProcDelay.
	// Every wait is equally long, so they leave in the order sent.
	acks      fifo[int64]
	BytesRcvd int64
}

type (
	// delayedAck is the peer's delayed-ACK timer.
	delayedAck tcpPeer
	// peerAck puts the oldest waiting ACK on the wire.
	peerAck tcpPeer
)

// Deliver implements Endpoint: a data segment reached the peer.
func (p *tcpPeer) Deliver(pk Packet) { p.onData(pk.N) }

// Fire implements sim.Caller.
func (d *delayedAck) Fire(sim.Time) {
	if p := (*tcpPeer)(d); p.unacked > 0 {
		p.sendAck()
	}
}

// Fire implements sim.Caller.
func (a *peerAck) Fire(sim.Time) {
	p := (*tcpPeer)(a)
	p.conn.stack.device().ReturnSegment(Packet{IPBytes: hw.TCPHeaderBytes, To: (*tcpAckEnd)(p.conn), N: p.acks.pop()})
}

func (p *tcpPeer) onData(bytes int64) {
	p.BytesRcvd += bytes
	p.unacked += bytes
	p.pending++
	if p.pending >= 2 {
		p.sendAck()
		return
	}
	if !p.delayEv.Active() {
		s := p.conn.stack.kernel.Sim
		p.delayEv = s.Schedule(s.Now()+delayedAckTimeout, "delack", (*delayedAck)(p))
	}
}

func (p *tcpPeer) sendAck() {
	p.delayEv.Cancel()
	p.acks.push(p.unacked)
	p.unacked = 0
	p.pending = 0
	// The remote host spends a little time before the ACK hits its wire.
	s := p.conn.stack.kernel.Sim
	s.Schedule(s.Now()+peerProcDelay, "peer-ack", (*peerAck)(p))
}

// Datagram is a UDP message with an opaque payload for protocol state
// (e.g. the timestamps of the time-sync protocol).
type Datagram struct {
	Bytes int64
	Data  any
}

// UDPSocket is a connectionless socket paired with a remote responder.
type UDPSocket struct {
	stack *NetStack
	id    int

	// Responder, if set, models the remote service: it receives each
	// outbound datagram and returns the reply to be delivered back.
	Responder func(Datagram) Datagram

	rcvq   []Datagram
	waiter *GThread

	// replies holds the Responder's replies waiting out peerProcDelay,
	// in the order they were made.
	replies fifo[Datagram]

	// Received logs every delivered datagram in arrival order, so
	// experiment harnesses can inspect protocol payloads after the run.
	Received []Datagram

	// OnDeliver, if set, observes each datagram at its true arrival
	// instant (protocol clients need arrival-time stamps, not the time
	// the harness later drains the queue).
	OnDeliver func(Datagram)

	// Sink, if set, models a measuring remote endpoint (iperf -u
	// server): outbound datagrams that survive the path are counted
	// there instead of generating replies.
	Sink func(Datagram)
	// SinkBytes accumulates payload delivered to the Sink.
	SinkBytes int64

	Sent, Rcvd uint64
}

// OpenUDP creates UDP socket id.
func (ns *NetStack) OpenUDP(id int) *UDPSocket {
	if _, dup := ns.udp[id]; dup {
		panic(fmt.Sprintf("guestos: duplicate UDP socket %d", id))
	}
	u := &UDPSocket{stack: ns, id: id}
	ns.udp[id] = u
	return u
}

// UDP returns socket id, or nil.
func (ns *NetStack) UDP(id int) *UDPSocket { return ns.udp[id] }

// SendTo emits one datagram toward the responder. Non-blocking. The
// payload must fit one IP packet of at most hw.MTU bytes.
func (u *UDPSocket) SendTo(d Datagram) {
	if d.Bytes <= 0 || d.Bytes > maxUDPPayload {
		panic(fmt.Sprintf("guestos: UDP payload %d out of range (1..%d)", d.Bytes, maxUDPPayload))
	}
	u.Sent++
	u.stack.kernel.charge(udpTxOps)
	u.stack.device().SendSegment(Packet{IPBytes: d.Bytes + hw.UDPHeaderBytes, To: (*udpRemote)(u), Datagram: d})
}

type (
	// udpRemote is the socket's remote end: its Sink or Responder.
	udpRemote UDPSocket
	// udpReply puts the Responder's oldest waiting reply on the wire.
	udpReply UDPSocket
	// udpLocal is the socket's local end, where replies arrive.
	udpLocal UDPSocket
)

// Deliver implements Endpoint: a datagram reached the remote station.
func (r *udpRemote) Deliver(p Packet) {
	u := (*UDPSocket)(r)
	d := p.Datagram
	if u.Sink != nil {
		u.SinkBytes += d.Bytes
		u.Sink(d)
		return
	}
	if u.Responder == nil {
		return // silently dropped at a closed remote port
	}
	u.replies.push(u.Responder(d))
	s := u.stack.kernel.Sim
	s.Schedule(s.Now()+peerProcDelay, "udp-reply", (*udpReply)(u))
}

// Fire implements sim.Caller.
func (r *udpReply) Fire(sim.Time) {
	u := (*UDPSocket)(r)
	d := u.replies.pop()
	u.stack.device().ReturnSegment(Packet{IPBytes: d.Bytes + hw.UDPHeaderBytes, To: (*udpLocal)(u), Datagram: d})
}

// Deliver implements Endpoint: a reply reached the guest stack.
func (l *udpLocal) Deliver(p Packet) { (*UDPSocket)(l).deliver(p.Datagram) }

func (u *UDPSocket) deliver(d Datagram) {
	u.Rcvd++
	u.stack.kernel.charge(udpRxOps)
	u.Received = append(u.Received, d)
	if u.OnDeliver != nil {
		u.OnDeliver(d)
	}
	if u.waiter != nil {
		// The datagram satisfies the blocked receiver directly.
		g := u.waiter
		u.waiter = nil
		u.stack.kernel.makeRunnable(g)
		u.stack.kernel.interruptEntry()
		return
	}
	u.rcvq = append(u.rcvq, d)
}

// appRecv blocks the guest thread until a datagram is available.
func (u *UDPSocket) appRecv(g *GThread, _ int64) (blocked bool) {
	if len(u.rcvq) > 0 {
		u.rcvq = u.rcvq[1:]
		return false
	}
	if u.waiter != nil {
		panic("guestos: second waiter on UDP socket")
	}
	u.waiter = g
	return true
}

// Pop removes and returns the oldest queued datagram, for experiment
// harnesses that inspect protocol payloads outside the step stream.
func (u *UDPSocket) Pop() (Datagram, bool) {
	if len(u.rcvq) == 0 {
		return Datagram{}, false
	}
	d := u.rcvq[0]
	u.rcvq = u.rcvq[1:]
	return d, true
}

// fifo is a first-in, first-out queue that reuses its backing array, so
// a queue that keeps draining allocates nothing once it has grown.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// pop removes and returns the oldest item. The queue must not be empty.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}
