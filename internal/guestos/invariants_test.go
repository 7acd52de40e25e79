package guestos

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vmdg/internal/cost"
	"vmdg/internal/hw"
	"vmdg/internal/sim"
)

// TestTCPConservationProperty: any pattern of application writes is
// eventually delivered and acknowledged byte-for-byte.
func TestTCPConservationProperty(t *testing.T) {
	f := func(chunks []uint16) bool {
		var total int64
		for _, c := range chunks {
			total += int64(c)
		}
		if total == 0 || len(chunks) > 40 {
			return true
		}
		s := sim.New()
		nic := &nativeNIC{tx: hw.FastEthernet(s), rx: hw.FastEthernet(s)}
		k := NewKernel(KernelConfig{Sim: s, NIC: nic})
		k.Net.Dial(1)
		m := cost.NewMeter("w")
		for _, c := range chunks {
			if c == 0 {
				continue
			}
			m.NetSend(1, int64(c))
		}
		k.SpawnG("w", m.Profile().Iter())
		e := newExecutor(s, k)
		e.start()
		s.Run()
		c := k.Net.Conn(1)
		return c.Drained() && c.Acked == total && c.peer.BytesRcvd == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestTCPInflightNeverExceedsWindow: instrument a long transfer and check
// the windowing invariant at every send.
func TestTCPInflightNeverExceedsWindow(t *testing.T) {
	s := sim.New()
	nic := &nativeNIC{tx: hw.FastEthernet(s), rx: hw.FastEthernet(s)}
	k := NewKernel(KernelConfig{Sim: s, NIC: nic})
	c := k.Net.Dial(1)
	m := cost.NewMeter("w")
	m.NetSend(1, 2<<20)
	k.SpawnG("w", m.Profile().Iter())
	e := newExecutor(s, k)
	e.start()
	// Step the simulation and probe the invariant continuously.
	for {
		next, ok := s.NextEventTime()
		if !ok {
			break
		}
		s.RunUntil(next)
		if c.inflight > c.window() {
			t.Fatalf("inflight %d exceeds window %d", c.inflight, c.window())
		}
		if c.sndBuf < 0 || c.inflight < 0 {
			t.Fatalf("negative buffer state: buf=%d inflight=%d", c.sndBuf, c.inflight)
		}
	}
	if !c.Drained() {
		t.Fatal("not drained")
	}
}

// TestFSCacheAccountingProperty: after any pattern of writes, the cache
// occupancy equals the page count times the page size and never exceeds
// capacity + one file's dirty backlog.
func TestFSCacheAccountingProperty(t *testing.T) {
	f := func(ops []uint32) bool {
		if len(ops) > 48 {
			return true
		}
		s := sim.New()
		d := &fakeDisk{s: s, latency: 100 * sim.Microsecond, bps: 600e6}
		k := NewKernel(KernelConfig{Sim: s, Disk: d, CacheBytes: 1 << 20})
		m := cost.NewMeter("w")
		for i, op := range ops {
			off := int64(op%2048) * 512
			n := int64(op%64)*512 + 512
			if op%3 == 0 {
				m.DiskRead("f", off, n)
			} else {
				m.DiskWrite("f", off, n)
			}
			if i%7 == 6 {
				m.DiskSync("f")
			}
		}
		m.DiskSync("f")
		k.SpawnG("w", m.Profile().Iter())
		e := newExecutor(s, k)
		e.start()
		s.Run()
		if !e.done {
			return false
		}
		// All dirty data flushed by the final sync.
		if k.FS.DirtyBytes() != 0 {
			return false
		}
		// Occupancy is page-aligned and non-negative.
		cb := k.FS.CachedBytes()
		return cb >= 0 && cb%PageSize == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// scanDirtyBytes is the page scan the per-file dirty counter replaced,
// kept as the reference the counter must agree with.
func scanDirtyBytes(f *gfile) int64 {
	var d int64
	for _, p := range f.pages {
		if p.dirty {
			d += PageSize
		}
	}
	return d
}

// TestFSDirtyCounterMatchesScanProperty drives the filesystem directly
// with seeded sequences of writes, reads, fsyncs and cache drops over
// three files, with device completions interleaved. After every
// operation and every completion, each file's counted dirtyBytes
// equals a scan of its pages, and DirtyBytes equals their sum. Half the
// cases run in a cache small enough to evict on most inserts; the
// other half run in one large enough that writes past the writeback
// high-water mark flush without evicting (eviction scans every cached
// page, so the two together would be slow).
func TestFSDirtyCounterMatchesScanProperty(t *testing.T) {
	files := []string{"a", "b", "c"}
	f := func(highWater bool, ops []uint32) bool {
		s := sim.New()
		d := &fakeDisk{s: s, latency: 100 * sim.Microsecond, bps: 600e6}
		capacity := int64(256 << 10)
		if highWater {
			capacity = 64 << 20
		}
		k := NewKernel(KernelConfig{Sim: s, Disk: d, CacheBytes: capacity})
		fs := k.FS
		agree := func() bool {
			var sum int64
			for _, gf := range fs.files {
				if fs.dirtyBytes(gf) != scanDirtyBytes(gf) {
					return false
				}
				sum += scanDirtyBytes(gf)
			}
			return fs.DirtyBytes() == sum
		}
		// step delivers the device completions due at the next event
		// time, as an interrupt would.
		step := func() bool {
			next, ok := s.NextEventTime()
			if ok {
				s.RunUntil(next)
			}
			return ok
		}
		// A blocking read or fsync parks its thread until the device
		// completes; each gets its own so completions can overlap.
		parked := func() *GThread { return &GThread{Name: "probe", kernel: k, state: gBlocked} }
		for _, op := range ops {
			name := files[op%3]
			off := int64(op>>2%512) * 1024
			n := int64(op>>11%64+1) * 1024
			switch op >> 17 % 16 {
			case 0:
				if highWater {
					n = writebackHighWater
				}
				fs.write(nil, name, off, n)
			case 1, 2, 3, 4, 5:
				fs.write(nil, name, off, n)
			case 6, 7, 8:
				fs.read(parked(), name, off, n)
			case 9, 10:
				fs.fsync(parked(), name)
			case 11:
				fs.DropCaches()
			default:
				step()
			}
			if !agree() {
				return false
			}
		}
		for step() {
			if !agree() {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestFSWriteReadBackConsistencySizes: file sizes reflect the furthest
// write for arbitrary patterns.
func TestFSWriteReadBackConsistencySizes(t *testing.T) {
	f := func(writes []uint16) bool {
		if len(writes) == 0 || len(writes) > 30 {
			return true
		}
		s := sim.New()
		k, _ := newKernelWithDisk(s)
		m := cost.NewMeter("w")
		var maxEnd int64
		for _, w := range writes {
			off := int64(w) * 100
			n := int64(w%5)*1000 + 1
			m.DiskWrite("f", off, n)
			if off+n > maxEnd {
				maxEnd = off + n
			}
		}
		k.SpawnG("w", m.Profile().Iter())
		e := newExecutor(s, k)
		e.start()
		s.Run()
		return k.FS.FileSize("f") == maxEnd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelInterleavesIOAndCompute: two guest threads, one I/O-bound and
// one compute-bound, must overlap — the compute thread runs while the
// other waits on the disk.
func TestKernelInterleavesIOAndCompute(t *testing.T) {
	s := sim.New()
	d := &fakeDisk{s: s, latency: 20 * sim.Millisecond, bps: 60e6}
	k := NewKernel(KernelConfig{Sim: s, Disk: d})

	io := cost.NewMeter("io")
	for i := int64(0); i < 10; i++ {
		io.DiskWrite("f", i<<20, 64<<10)
		io.DiskSync("f")
	}
	k.SpawnG("io", io.Profile().Iter())

	cpu := cost.NewMeter("cpu")
	cpu.Ops(cost.Counts{IntOps: 2.4e8}) // 100 ms of compute
	var cpuDone sim.Time
	g := k.SpawnG("cpu", cpu.Profile().Iter())
	e := newExecutor(s, k)
	e.start()
	for !g.Finished() {
		next, ok := s.NextEventTime()
		if !ok {
			break
		}
		s.RunUntil(next)
	}
	cpuDone = s.Now()
	s.Run()
	ioDone := s.Now()
	// 10 syncs × ≥20 ms disk latency serialize to ≥200 ms; the compute
	// thread must not be delayed anywhere near that.
	if ioDone < 200*sim.Millisecond {
		t.Fatalf("io finished too fast: %v", ioDone)
	}
	if cpuDone > 150*sim.Millisecond {
		t.Fatalf("compute thread blocked behind io: done at %v", cpuDone)
	}
}

// TestSliceCarrySplitsExactly: a compute step larger than the timeslice
// retires the exact cycle total across splits.
func TestSliceCarrySplitsExactly(t *testing.T) {
	s := sim.New()
	k := NewKernel(KernelConfig{Sim: s})
	total := 3.7 * timesliceCycle
	k.SpawnG("big", (&cost.Profile{Name: "b", Steps: []cost.Step{
		{Kind: cost.StepCompute, Cycles: total, Mix: cost.Mix{FP: 1}},
	}}).Iter())
	k.SpawnG("peer", (&cost.Profile{Name: "p", Steps: []cost.Step{
		{Kind: cost.StepCompute, Cycles: total, Mix: cost.Mix{Int: 1}},
	}}).Iter())
	e := newExecutor(s, k)
	e.start()
	s.Run()
	if !e.done {
		t.Fatal("kernel did not finish")
	}
	// Executor cycles = guest work + kernel overhead; guest work alone is
	// 2×total, and overhead must be positive but small.
	overhead := e.cycles - 2*total
	if overhead <= 0 {
		t.Fatalf("cycles %v below guest work %v", e.cycles, 2*total)
	}
	if overhead > 0.02*2*total {
		t.Fatalf("slice-split overhead %.0f cycles is > 2%%", overhead)
	}
}

// TestFIFOMatchesSliceQueueProperty: the ACK and reply FIFO pops what a
// plain slice queue pops, through any interleaving of pushes and pops,
// including the compaction when a partly drained queue fills its array.
func TestFIFOMatchesSliceQueueProperty(t *testing.T) {
	f := func(ops []bool) bool {
		var q fifo[int64]
		var ref []int64
		next := int64(0)
		for _, push := range ops {
			if push || len(ref) == 0 {
				q.push(next)
				ref = append(ref, next)
				next++
				continue
			}
			if q.pop() != ref[0] {
				return false
			}
			ref = ref[1:]
		}
		for len(ref) > 0 {
			if q.pop() != ref[0] {
				return false
			}
			ref = ref[1:]
		}
		return q.head == 0 && len(q.buf) == 0
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
