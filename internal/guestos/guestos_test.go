package guestos

import (
	"math"
	"slices"
	"testing"

	"vmdg/internal/bench/iobench"
	"vmdg/internal/cost"
	"vmdg/internal/hw"
	"vmdg/internal/sim"
)

// executor runs a Kernel's vCPU stream directly against the simulator at
// native speed — the "bare metal" harness used before the VMM exists.
type executor struct {
	s      *sim.Simulator
	k      *Kernel
	freq   float64
	halted bool
	done   bool

	cycles float64 // compute cycles executed
}

func newExecutor(s *sim.Simulator, k *Kernel) *executor {
	e := &executor{s: s, k: k, freq: 2.4e9}
	k.SetWake(func() {
		if e.halted {
			e.halted = false
			e.s.Schedule(e.s.Now(), "vcpu-wake", callFunc(e.step))
		}
	})
	return e
}

func (e *executor) start() { e.s.Schedule(e.s.Now(), "vcpu-start", callFunc(e.step)) }

func (e *executor) step() {
	for {
		st, ok := e.k.Next()
		if !ok {
			e.done = true
			return
		}
		switch st.Kind {
		case cost.StepCompute:
			e.cycles += st.Cycles
			e.s.Schedule(e.s.Now()+sim.FromSeconds(st.Cycles/e.freq), "vcpu-compute", callFunc(e.step))
			return
		case cost.StepHalt:
			e.halted = true
			return
		default:
			panic("kernel emitted raw step " + st.Kind.String())
		}
	}
}

// fakeDisk completes requests after a fixed latency plus transfer time.
type fakeDisk struct {
	s        *sim.Simulator
	latency  sim.Time
	bps      float64
	reads    int
	writes   int
	readByte int64
	writByte int64
}

func (d *fakeDisk) Submit(off, bytes int64, write bool, done sim.Caller) {
	label := "fake-read"
	if write {
		d.writes++
		d.writByte += bytes
		label = "fake-write"
	} else {
		d.reads++
		d.readByte += bytes
	}
	d.s.Schedule(d.s.Now()+d.latency+sim.FromSeconds(float64(bytes)/d.bps), label, done)
}

// nativeNIC bridges the guest stack straight onto hardware links, the
// native-execution topology.
type nativeNIC struct{ tx, rx *hw.Link }

func (n *nativeNIC) SendSegment(p Packet)   { n.tx.Transmit(p.IPBytes, &arrival{p}) }
func (n *nativeNIC) ReturnSegment(p Packet) { n.rx.Transmit(p.IPBytes, &arrival{p}) }

// arrival hands a packet to its endpoint when its frame arrives.
type arrival struct{ p Packet }

func (a *arrival) Fire(sim.Time) { a.p.To.Deliver(a.p) }

// callFunc adapts a closure to sim.Caller for tests.
type callFunc func()

func (f callFunc) Fire(sim.Time) { f() }

func newKernelWithDisk(s *sim.Simulator) (*Kernel, *fakeDisk) {
	d := &fakeDisk{s: s, latency: 5 * sim.Millisecond, bps: 60e6}
	k := NewKernel(KernelConfig{Sim: s, Disk: d})
	return k, d
}

func computeSteps(cycles float64, mix cost.Mix) *cost.Profile {
	return &cost.Profile{Name: "c", Steps: []cost.Step{{Kind: cost.StepCompute, Cycles: cycles, Mix: mix}}}
}

func TestKernelRunsComputeToCompletion(t *testing.T) {
	s := sim.New()
	k := NewKernel(KernelConfig{Sim: s})
	k.SpawnG("w", computeSteps(2.4e9, cost.Mix{Int: 1}).Iter())
	e := newExecutor(s, k)
	e.start()
	s.Run()
	if !e.done {
		t.Fatal("kernel never finished")
	}
	// 1 s of work plus small kernel overhead.
	got := s.Now().Seconds()
	if got < 1.0 || got > 1.001 {
		t.Fatalf("wall = %v, want ~1s", got)
	}
	if !k.AllFinished() {
		t.Fatal("AllFinished false")
	}
}

func TestKernelTimesliceRotation(t *testing.T) {
	s := sim.New()
	k := NewKernel(KernelConfig{Sim: s})
	var g1, g2 *GThread
	g1 = k.SpawnG("a", computeSteps(2.4e8, cost.Mix{Int: 1}).Iter())
	g2 = k.SpawnG("b", computeSteps(2.4e8, cost.Mix{Int: 1}).Iter())
	e := newExecutor(s, k)
	e.start()
	s.Run()
	if !g1.Finished() || !g2.Finished() {
		t.Fatal("threads unfinished")
	}
	// With 10 ms slices and 100 ms of work each, the kernel must have
	// context-switched many times (≥ 2×(100/10) − slack).
	if k.CtxSwitches < 15 {
		t.Fatalf("ctx switches = %d, want ≥15", k.CtxSwitches)
	}
}

func TestKernelChargesOverhead(t *testing.T) {
	s := sim.New()
	k := NewKernel(KernelConfig{Sim: s})
	k.SpawnG("w", computeSteps(1e6, cost.Mix{Int: 1}).Iter())
	e := newExecutor(s, k)
	e.start()
	s.Run()
	if e.cycles <= 1e6 {
		t.Fatalf("executed %v cycles, expected scheduler overhead on top of 1e6", e.cycles)
	}
}

func TestGuestSleepHaltsAndWakes(t *testing.T) {
	s := sim.New()
	k := NewKernel(KernelConfig{Sim: s})
	m := cost.NewMeter("sleeper")
	m.Int(1000)
	m.Sleep(100 * sim.Millisecond)
	m.Int(1000)
	k.SpawnG("sleeper", m.Profile().Iter())
	e := newExecutor(s, k)
	e.start()
	s.Run()
	if !e.done {
		t.Fatal("did not finish")
	}
	if s.Now() < 100*sim.Millisecond {
		t.Fatalf("finished at %v, sleep lost", s.Now())
	}
	if k.Interrupts == 0 {
		t.Fatal("timer interrupt not accounted")
	}
}

func TestFSWriteIsCachedThenFsyncHitsDisk(t *testing.T) {
	s := sim.New()
	k, d := newKernelWithDisk(s)
	m := cost.NewMeter("writer")
	m.DiskWrite("f", 0, 1<<20)
	m.DiskSync("f")
	k.SpawnG("writer", m.Profile().Iter())
	e := newExecutor(s, k)
	e.start()
	s.Run()
	if !e.done {
		t.Fatal("did not finish")
	}
	if d.writes == 0 || d.writByte < 1<<20 {
		t.Fatalf("fsync wrote %d bytes in %d ops", d.writByte, d.writes)
	}
	if k.FS.DirtyBytes() != 0 {
		t.Fatalf("dirty after fsync: %d", k.FS.DirtyBytes())
	}
}

func TestFSReadFromCacheNoDisk(t *testing.T) {
	s := sim.New()
	k, d := newKernelWithDisk(s)
	m := cost.NewMeter("rw")
	m.DiskWrite("f", 0, 256<<10)
	m.DiskRead("f", 0, 256<<10) // still cached: no device read
	k.SpawnG("rw", m.Profile().Iter())
	e := newExecutor(s, k)
	e.start()
	s.Run()
	if d.reads != 0 {
		t.Fatalf("cached read hit the device %d times", d.reads)
	}
	if k.FS.Hits == 0 {
		t.Fatal("no cache hits recorded")
	}
}

func TestFSDropCachesForcesDeviceRead(t *testing.T) {
	s := sim.New()
	k, d := newKernelWithDisk(s)
	m1 := cost.NewMeter("w")
	m1.DiskWrite("f", 0, 512<<10)
	m1.DiskSync("f")
	k.SpawnG("w", m1.Profile().Iter())
	e := newExecutor(s, k)
	e.start()
	s.Run()

	k.FS.DropCaches()
	if k.FS.CachedBytes() != 0 {
		t.Fatalf("cache not empty after drop: %d", k.FS.CachedBytes())
	}

	m2 := cost.NewMeter("r")
	m2.DiskRead("f", 0, 512<<10)
	k.SpawnG("r", m2.Profile().Iter())
	e2 := newExecutor(s, k)
	e2.start()
	s.Run()
	if d.reads == 0 {
		t.Fatal("read after drop_caches never reached the device")
	}
	if k.FS.Misses == 0 {
		t.Fatal("no cache misses recorded")
	}
}

func TestFSReadPastEOFShortReads(t *testing.T) {
	s := sim.New()
	k, d := newKernelWithDisk(s)
	m := cost.NewMeter("r")
	m.DiskRead("absent", 0, 4096) // empty file: returns immediately
	k.SpawnG("r", m.Profile().Iter())
	e := newExecutor(s, k)
	e.start()
	s.Run()
	if !e.done {
		t.Fatal("EOF read wedged the thread")
	}
	if d.reads != 0 {
		t.Fatal("EOF read touched the device")
	}
}

func TestFSEvictionUnderPressure(t *testing.T) {
	s := sim.New()
	d := &fakeDisk{s: s, latency: sim.Millisecond, bps: 600e6}
	k := NewKernel(KernelConfig{Sim: s, Disk: d, CacheBytes: 1 << 20}) // tiny 1 MB cache
	m := cost.NewMeter("w")
	for i := int64(0); i < 4; i++ {
		m.DiskWrite("f", i<<20, 1<<20)
		m.DiskSync("f")
	}
	k.SpawnG("w", m.Profile().Iter())
	e := newExecutor(s, k)
	e.start()
	s.Run()
	if k.FS.CachedBytes() > 1<<20 {
		t.Fatalf("cache %d exceeds 1 MB capacity after clean evictions", k.FS.CachedBytes())
	}
	if k.FS.EvictedPages == 0 {
		t.Fatal("no evictions under pressure")
	}
}

// TestFSRewriteAfterDropAllocatesNothing: a dropped page keeps its entry
// in its file's page table, so rewriting a range that was cached once
// allocates nothing. The rewrites run inside one AllocsPerRun call, so
// its count is exact: AllocsPerRun divides by the number of calls and
// truncates.
func TestFSRewriteAfterDropAllocatesNothing(t *testing.T) {
	const chunk, rewrites = 64 << 10, 50
	s := sim.New()
	k, _ := newKernelWithDisk(s)
	fs := k.FS
	// AllocsPerRun runs the loop twice, a warm-up and the measured call,
	// and each pass rewrites its own chunks.
	fs.write(nil, "f", 0, 2*rewrites*chunk)
	if !fs.fsync(&GThread{Name: "sync", kernel: k, state: gBlocked}, "f") {
		t.Fatal("fsync of a dirty file did not block")
	}
	s.Run()
	fs.DropCaches()
	if fs.CachedBytes() != 0 || fs.DirtyBytes() != 0 {
		t.Fatalf("after fsync and drop: %d cached, %d dirty bytes", fs.CachedBytes(), fs.DirtyBytes())
	}
	off := int64(0)
	allocs := testing.AllocsPerRun(1, func() {
		for range rewrites {
			fs.write(nil, "f", off, chunk)
			off += chunk
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations in %d rewrites of %d KB after DropCaches, want 0", allocs, rewrites, chunk>>10)
	}
	if got := fs.DirtyBytes(); got != 2*rewrites*chunk {
		t.Fatalf("rewrite left %d dirty bytes, want %d", got, 2*rewrites*chunk)
	}
}

// TestFSReadMissAllocatesNothing: a read miss reuses its FileSystem's
// buffer of missing runs and its pooled device requests, so re-reading a
// file after DropCaches allocates nothing. The even pages are read one by
// one first, so the whole-file read then misses in one run per odd page.
// The re-reads run inside one AllocsPerRun call, so its count is exact.
func TestFSReadMissAllocatesNothing(t *testing.T) {
	const pages = 64
	s := sim.New()
	k, d := newKernelWithDisk(s)
	fs := k.FS
	fs.write(nil, "f", 0, pages*PageSize)
	if !fs.fsync(&GThread{Name: "sync", kernel: k, state: gBlocked}, "f") {
		t.Fatal("fsync of a dirty file did not block")
	}
	s.Run()
	g := &GThread{Name: "reader", kernel: k}
	read := func(off, n int64) {
		g.state = gBlocked
		if !fs.read(g, "f", off, n) {
			t.Fatalf("read of %d bytes at %d did not block", n, off)
		}
		s.Run()
		if g.state != gRunnable {
			t.Fatalf("reader is in state %d after its read completed", g.state)
		}
		k.runq = k.runq[:0]
	}
	before := d.reads
	allocs := testing.AllocsPerRun(1, func() {
		fs.DropCaches()
		for idx := int64(0); idx < pages; idx += 2 {
			read(idx*PageSize, PageSize)
		}
		read(0, pages*PageSize)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations in re-reading %d pages after DropCaches, want 0", allocs, pages)
	}
	// AllocsPerRun runs the loop twice; each pass issues pages/2 reads
	// for the even pages and then one per odd page.
	if got := d.reads - before; got != 2*pages {
		t.Fatalf("the re-reads issued %d device reads, want %d", got, 2*pages)
	}
	if got := fs.CachedBytes(); got != pages*PageSize {
		t.Fatalf("%d bytes cached after the re-reads, want %d", got, pages*PageSize)
	}
}

// TestFSFlushAllocatesNothing: fsync and async writeback collect their
// dirty runs in the filesystem's reused buffer and send each run through
// a pooled device request, so neither allocates. The fsync's file is
// dirty in 32 separate one-page runs; the writeback rewrites
// writebackHighWater bytes of a file whose page table already covers
// them, in one run. Each case runs inside one AllocsPerRun call, so its
// count is exact.
func TestFSFlushAllocatesNothing(t *testing.T) {
	const runs = 32
	t.Run("fsync", func(t *testing.T) {
		s := sim.New()
		k, d := newKernelWithDisk(s)
		fs := k.FS
		fs.write(nil, "f", 0, 2*runs*PageSize)
		g := &GThread{Name: "sync", kernel: k}
		fsync := func() {
			g.state = gBlocked
			if !fs.fsync(g, "f") {
				t.Fatal("fsync of a dirty file did not block")
			}
			s.Run()
			if g.state != gRunnable {
				t.Fatalf("syncer is in state %d after its fsync completed", g.state)
			}
			k.runq = k.runq[:0]
		}
		fsync()
		before := d.writes
		allocs := testing.AllocsPerRun(1, func() {
			for idx := int64(0); idx < 2*runs; idx += 2 {
				fs.write(nil, "f", idx*PageSize, PageSize)
			}
			fsync()
		})
		if allocs != 0 {
			t.Errorf("%v allocations in an fsync of %d one-page runs, want 0", allocs, runs)
		}
		// AllocsPerRun runs the function twice, a warm-up and the
		// measured call.
		if got := d.writes - before; got != 2*runs {
			t.Errorf("the fsyncs issued %d device writes, want %d", got, 2*runs)
		}
	})
	t.Run("writeback", func(t *testing.T) {
		s := sim.New()
		k, d := newKernelWithDisk(s)
		fs := k.FS
		write := func() {
			fs.write(nil, "f", 0, writebackHighWater)
			s.Run()
		}
		write()
		before := d.writes
		allocs := testing.AllocsPerRun(1, write)
		if allocs != 0 {
			t.Errorf("%v allocations in a write of %d MB that starts writeback, want 0", allocs, writebackHighWater>>20)
		}
		if got := d.writes - before; got != 2 {
			t.Errorf("the writes issued %d device writes, want 2", got)
		}
		if got := fs.DirtyBytes(); got != 0 {
			t.Errorf("%d dirty bytes after writeback, want 0", got)
		}
	})
}

// TestFSFlushInterrupts: a thread blocked on fsync wakes, with exactly
// one interrupt, only when the last of its runs lands, while async
// writeback raises one interrupt per run and wakes no one. The dirty
// runs are 1, 2 and 3 pages long, so the fake disk lands each at its own
// instant, and the test fires one instant at a time.
func TestFSFlushInterrupts(t *testing.T) {
	const runs = 3
	s := sim.New()
	k, d := newKernelWithDisk(s)
	fs := k.FS
	dirty := func() {
		for _, idx := range []int64{0, 2, 3, 5, 6, 7} {
			fs.write(nil, "f", idx*PageSize, PageSize)
		}
	}
	land := func() {
		at, ok := s.NextEventTime()
		if !ok {
			t.Fatal("no device write in flight")
		}
		s.RunUntil(at)
	}

	dirty()
	g := &GThread{Name: "sync", kernel: k, state: gBlocked}
	if !fs.fsync(g, "f") {
		t.Fatal("fsync of a dirty file did not block")
	}
	if d.writes != runs {
		t.Fatalf("fsync issued %d device writes, want %d", d.writes, runs)
	}
	for i := 1; i <= runs; i++ {
		land()
		state, interrupts := gBlocked, uint64(0)
		if i == runs {
			state, interrupts = gRunnable, 1
		}
		if g.state != state || k.Interrupts != interrupts {
			t.Fatalf("after %d of %d runs landed: thread state %d with %d interrupts, want %d with %d",
				i, runs, g.state, k.Interrupts, state, interrupts)
		}
	}
	k.runq = k.runq[:0]

	dirty()
	fs.flushAsync(fs.files["f"])
	if d.writes != 2*runs {
		t.Fatalf("writeback issued %d device writes, want %d", d.writes-runs, runs)
	}
	for i := 1; i <= runs; i++ {
		land()
		if want := uint64(1 + i); k.Interrupts != want || len(k.runq) != 0 {
			t.Fatalf("after %d of %d writeback runs landed: %d interrupts and %d runnable threads, want %d and none",
				i, runs, k.Interrupts, len(k.runq), want)
		}
	}
	if n := s.Pending(); n != 0 {
		t.Fatalf("%d events pending after every run landed", n)
	}
}

// TestFSDirtyExtentsAscendingMerged: writeback takes a file's dirty pages
// as ascending runs of adjacent pages, whatever order they were written
// in, and leaves them clean.
func TestFSDirtyExtentsAscendingMerged(t *testing.T) {
	s := sim.New()
	k, _ := newKernelWithDisk(s)
	fs := k.FS
	for _, idx := range []int64{5, 3, 4, 9} {
		fs.write(nil, "f", idx*PageSize, PageSize)
	}
	f := fs.files["f"]
	want := []extent{{3, 5}, {9, 9}}
	if fs.dirtyExtents(f); !slices.Equal(fs.runs, want) {
		t.Fatalf("dirtyExtents collected %v, want %v", fs.runs, want)
	}
	if f.dirty != 0 || scanDirtyBytes(f) != 0 {
		t.Fatalf("after dirtyExtents: counter %d, scan %d dirty bytes", f.dirty, scanDirtyBytes(f))
	}
	if fs.dirtyExtents(f); len(fs.runs) != 0 {
		t.Fatalf("second dirtyExtents collected %v, want none", fs.runs)
	}
	if fs.CachedBytes() != 4*PageSize {
		t.Fatalf("cached %d bytes, want the 4 written pages", fs.CachedBytes())
	}
}

func TestFSFileSize(t *testing.T) {
	s := sim.New()
	k, _ := newKernelWithDisk(s)
	m := cost.NewMeter("w")
	m.DiskWrite("f", 1<<20, 4096)
	k.SpawnG("w", m.Profile().Iter())
	e := newExecutor(s, k)
	e.start()
	s.Run()
	if got := k.FS.FileSize("f"); got != 1<<20+4096 {
		t.Fatalf("size = %d", got)
	}
	if k.FS.FileSize("nope") != 0 {
		t.Fatal("absent file has nonzero size")
	}
}

func TestTCPThroughputNearLineRate(t *testing.T) {
	s := sim.New()
	nic := &nativeNIC{tx: hw.FastEthernet(s), rx: hw.FastEthernet(s)}
	k := NewKernel(KernelConfig{Sim: s, NIC: nic})
	k.Net.Dial(1)

	const total = 10 << 20 // the paper's 10 MB stream
	m := cost.NewMeter("iperf")
	for sent := int64(0); sent < total; sent += 64 << 10 {
		m.NetSend(1, 64<<10)
	}
	k.SpawnG("iperf", m.Profile().Iter())
	e := newExecutor(s, k)
	e.start()
	s.Run()

	c := k.Net.Conn(1)
	if !c.Drained() {
		t.Fatalf("connection not drained: buf=%d inflight=%d", c.sndBuf, c.inflight)
	}
	if c.Acked != total {
		t.Fatalf("acked %d of %d", c.Acked, total)
	}
	mbps := float64(total) * 8 / s.Now().Seconds() / 1e6
	if mbps < 90 || mbps > 98 {
		t.Fatalf("native TCP goodput = %.2f Mbps, want ~94-97", mbps)
	}
}

func TestTCPConservation(t *testing.T) {
	s := sim.New()
	nic := &nativeNIC{tx: hw.FastEthernet(s), rx: hw.FastEthernet(s)}
	k := NewKernel(KernelConfig{Sim: s, NIC: nic})
	k.Net.Dial(7)
	m := cost.NewMeter("x")
	m.NetSend(7, 333333) // deliberately non-MSS-aligned
	k.SpawnG("x", m.Profile().Iter())
	e := newExecutor(s, k)
	e.start()
	s.Run()
	c := k.Net.Conn(7)
	if c.Acked != 333333 || c.peer.BytesRcvd != 333333 {
		t.Fatalf("conservation violated: acked=%d rcvd=%d", c.Acked, c.peer.BytesRcvd)
	}
	if c.SegsSent == 0 || c.AcksRcvd == 0 {
		t.Fatal("no segments/acks recorded")
	}
}

func TestTCPDelayedAckFlushesLoneSegment(t *testing.T) {
	s := sim.New()
	nic := &nativeNIC{tx: hw.FastEthernet(s), rx: hw.FastEthernet(s)}
	k := NewKernel(KernelConfig{Sim: s, NIC: nic})
	k.Net.Dial(1)
	m := cost.NewMeter("x")
	m.NetSend(1, 100) // single sub-MSS segment → delayed-ACK path
	k.SpawnG("x", m.Profile().Iter())
	e := newExecutor(s, k)
	e.start()
	s.Run()
	c := k.Net.Conn(1)
	if c.Acked != 100 {
		t.Fatalf("lone segment never acked: %d", c.Acked)
	}
	if s.Now() < delayedAckTimeout {
		t.Fatalf("ack arrived before delack timeout: %v", s.Now())
	}
}

func TestUDPRequestResponse(t *testing.T) {
	s := sim.New()
	nic := &nativeNIC{tx: hw.FastEthernet(s), rx: hw.FastEthernet(s)}
	k := NewKernel(KernelConfig{Sim: s, NIC: nic})
	u := k.Net.OpenUDP(5)
	u.Responder = func(d Datagram) Datagram {
		return Datagram{Bytes: 48, Data: "reply-to-" + d.Data.(string)}
	}
	u.SendTo(Datagram{Bytes: 48, Data: "q1"})
	s.Run()
	if len(u.Received) != 1 {
		t.Fatalf("received %d datagrams", len(u.Received))
	}
	if u.Received[0].Data.(string) != "reply-to-q1" {
		t.Fatalf("payload = %v", u.Received[0].Data)
	}
	if d, ok := u.Pop(); !ok || d.Data.(string) != "reply-to-q1" {
		t.Fatal("Pop failed")
	}
	if _, ok := u.Pop(); ok {
		t.Fatal("Pop on empty queue succeeded")
	}
}

func TestUDPRecvBlocksUntilReply(t *testing.T) {
	s := sim.New()
	nic := &nativeNIC{tx: hw.FastEthernet(s), rx: hw.FastEthernet(s)}
	k := NewKernel(KernelConfig{Sim: s, NIC: nic})
	u := k.Net.OpenUDP(9)
	u.Responder = func(d Datagram) Datagram { return Datagram{Bytes: 48} }

	m := cost.NewMeter("client")
	m.NetSend(9, 48) // TCP send? No: conn 9 is UDP — use direct socket below.
	_ = m

	// Drive via kernel steps: a program that sends then receives.
	prog := cost.NewMeter("c2")
	prog.NetRecv(9, 48)
	prog.Int(1000)
	k.SpawnG("c2", prog.Profile().Iter())
	// Issue the request from outside after 1 ms; the guest blocks on recv.
	s.Schedule(s.Now()+sim.Millisecond, "send-req", callFunc(func() { u.SendTo(Datagram{Bytes: 48}) }))
	e := newExecutor(s, k)
	e.start()
	s.Run()
	if !e.done {
		t.Fatal("receiver never woke")
	}
	if u.Rcvd != 1 {
		t.Fatalf("Rcvd = %d", u.Rcvd)
	}
}

// TestUDPSendToFitsMTU: a datagram's IP packet, its 28 header bytes
// included, must fit the 1500-byte MTU, so the largest payload is 1472.
func TestUDPSendToFitsMTU(t *testing.T) {
	s := sim.New()
	nic := &nativeNIC{tx: hw.FastEthernet(s), rx: hw.FastEthernet(s)}
	k := NewKernel(KernelConfig{Sim: s, NIC: nic})
	u := k.Net.OpenUDP(3)
	u.SendTo(Datagram{Bytes: 1472})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SendTo accepted a 1473-byte payload")
			}
		}()
		u.SendTo(Datagram{Bytes: 1473})
	}()
	s.Run()
	if u.Sent != 1 || nic.tx.WireBytes != hw.MTU+hw.EthernetOverhead {
		t.Fatalf("sent %d datagrams in %d wire bytes, want 1 in %d", u.Sent, nic.tx.WireBytes, hw.MTU+hw.EthernetOverhead)
	}
}

// TestUDPStepNetSendSplitsAtMTU: a StepNetSend on a UDP socket leaves as
// datagrams that each fill the MTU, then the remainder.
func TestUDPStepNetSendSplitsAtMTU(t *testing.T) {
	s := sim.New()
	nic := &nativeNIC{tx: hw.FastEthernet(s), rx: hw.FastEthernet(s)}
	k := NewKernel(KernelConfig{Sim: s, NIC: nic})
	u := k.Net.OpenUDP(4)
	var got []int64
	u.Sink = func(d Datagram) { got = append(got, d.Bytes) }
	m := cost.NewMeter("udp")
	m.NetSend(4, 3000)
	k.SpawnG("udp", m.Profile().Iter())
	e := newExecutor(s, k)
	e.start()
	s.Run()
	if want := []int64{1472, 1472, 56}; !slices.Equal(got, want) {
		t.Fatalf("3000 bytes left as datagrams of %v bytes, want %v", got, want)
	}
}

func TestKernelEmitsOnlyComputeAndHalt(t *testing.T) {
	s := sim.New()
	k, _ := newKernelWithDisk(s)
	m := cost.NewMeter("mixed")
	m.Int(1e5)
	m.DiskWrite("f", 0, 64<<10)
	m.DiskSync("f")
	m.DiskRead("f", 0, 64<<10)
	m.Sleep(sim.Millisecond)
	m.FP(1e5)
	k.SpawnG("mixed", m.Profile().Iter())
	e := newExecutor(s, k)
	e.start() // executor panics on any raw step kind
	s.Run()
	if !e.done {
		t.Fatal("did not finish")
	}
}

func TestNetOnKernelWithoutNICPanics(t *testing.T) {
	s := sim.New()
	k := NewKernel(KernelConfig{Sim: s})
	k.Net.Dial(1)
	m := cost.NewMeter("x")
	m.NetSend(1, 10)
	k.SpawnG("x", m.Profile().Iter())
	e := newExecutor(s, k)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic without NIC")
		}
	}()
	e.start()
	s.Run()
}

func TestGuestDeterminism(t *testing.T) {
	run := func() (sim.Time, float64, uint64) {
		s := sim.New()
		k, _ := newKernelWithDisk(s)
		for i := 0; i < 3; i++ {
			m := cost.NewMeter("w")
			m.Int(1e7)
			m.DiskWrite("f", int64(i)<<20, 1<<19)
			m.DiskSync("f")
			m.DiskRead("f", int64(i)<<20, 1<<19)
			m.Mem(1e6)
			k.SpawnG("w", m.Profile().Iter())
		}
		e := newExecutor(s, k)
		e.start()
		s.Run()
		return s.Now(), e.cycles, k.CtxSwitches
	}
	a1, b1, c1 := run()
	a2, b2, c2 := run()
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Fatalf("guest runs diverged: (%v,%v,%d) vs (%v,%v,%d)", a1, b1, c1, a2, b2, c2)
	}
}

func TestExactClock(t *testing.T) {
	s := sim.New()
	k := NewKernel(KernelConfig{Sim: s})
	s.RunUntil(5 * sim.Second)
	if k.GuestNow() != 5*sim.Second {
		t.Fatalf("exact clock drifted: %v", k.GuestNow())
	}
}

func TestPageRangeMath(t *testing.T) {
	cases := []struct{ off, n, first, last int64 }{
		{0, 1, 0, 0},
		{0, 4096, 0, 0},
		{0, 4097, 0, 1},
		{4095, 2, 0, 1},
		{8192, 4096, 2, 2},
	}
	for _, c := range cases {
		f, l := pageRange(c.off, c.n)
		if f != c.first || l != c.last {
			t.Errorf("pageRange(%d,%d) = %d,%d want %d,%d", c.off, c.n, f, l, c.first, c.last)
		}
	}
}

func TestGThreadString(t *testing.T) {
	g := &GThread{Name: "x"}
	if g.String() == "" {
		t.Fatal("empty string")
	}
	if math.Abs(1) != 1 { // keep math import honest alongside future checks
		t.Fatal("math broken")
	}
}

// BenchmarkPageCache times the guest page cache on iobench's largest
// file: one op writes 32 MB, fsyncs, drops the cache and reads the file
// back through a fresh Kernel on fakeDisk.
func BenchmarkPageCache(b *testing.B) {
	size := iobench.Sizes()[len(iobench.Sizes())-1]
	prof := iobench.Profile(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sim.New()
		k, _ := newKernelWithDisk(s)
		k.SpawnG("iobench", prof.Iter())
		e := newExecutor(s, k)
		e.start()
		s.Run()
		if !e.done || k.FS.CachedBytes() != size {
			b.Fatalf("done %v with %d cached bytes, want %d", e.done, k.FS.CachedBytes(), size)
		}
	}
}
