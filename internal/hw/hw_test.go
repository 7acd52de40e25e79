package hw

import (
	"math"
	"testing"
	"testing/quick"

	"vmdg/internal/sim"
)

func TestCPUValidate(t *testing.T) {
	if err := Core2Duo6600().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []CPU{
		{Cores: 0, FreqHz: 1e9},
		{Cores: 2, FreqHz: 0},
		{Cores: 2, FreqHz: 1e9, BusK: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", c)
		}
	}
}

func TestCPURatesIdleAndSolo(t *testing.T) {
	c := Core2Duo6600()
	r := make([]float64, 2)
	c.Rates([]float64{0.5, -1}, r)
	if r[0] != c.FreqHz {
		t.Fatalf("solo thread slowed: %v", r[0])
	}
	if r[1] != 0 {
		t.Fatalf("idle core rate = %v", r[1])
	}
}

func TestCPURatesContention(t *testing.T) {
	c := Core2Duo6600()
	// Two memory-free threads: no contention.
	r := make([]float64, 2)
	c.Rates([]float64{0, 0}, r)
	if r[0] != c.FreqHz || r[1] != c.FreqHz {
		t.Fatalf("ALU threads contended: %v", r)
	}
	// Two memory-heavy threads: both slowed, symmetrically.
	c.Rates([]float64{0.5, 0.5}, r)
	if r[0] >= c.FreqHz || r[0] != r[1] {
		t.Fatalf("symmetric contention broken: %v", r)
	}
	// A pure-ALU thread is immune to a memory-heavy neighbour.
	c.Rates([]float64{0, 0.9}, r)
	if r[0] != c.FreqHz {
		t.Fatalf("ALU thread slowed by neighbour: %v", r[0])
	}
	// ...and a memory thread is unaffected by a pure-ALU neighbour, which
	// generates no competing bus traffic.
	if r[1] != c.FreqHz {
		t.Fatalf("memory thread slowed by ALU neighbour: %v", r[1])
	}
}

func TestCPURatesMonotoneInNeighbourPressure(t *testing.T) {
	c := Core2Duo6600()
	prev := math.Inf(1)
	r := make([]float64, 2)
	for _, other := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0} {
		c.Rates([]float64{0.5, other}, r)
		if r[0] > prev {
			t.Fatalf("rate increased with neighbour pressure: %v", r[0])
		}
		prev = r[0]
	}
}

func TestCPURatesProperty(t *testing.T) {
	c := Core2Duo6600()
	f := func(a, b uint8) bool {
		m1 := float64(a%101) / 100
		m2 := float64(b%101) / 100
		r := make([]float64, 2)
		c.Rates([]float64{m1, m2}, r)
		return r[0] > 0 && r[0] <= c.FreqHz && r[1] > 0 && r[1] <= c.FreqHz
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCPURatesIntoReusedSlice: Rates overwrites every entry of the
// caller's slice, so one slice reused across calls reads exactly what a
// fresh slice would, idle cores included.
func TestCPURatesIntoReusedSlice(t *testing.T) {
	c := CPU{Cores: 3, FreqHz: 2.4e9, BusK: 0.45}
	reused := []float64{math.NaN(), math.Inf(1), -7}
	for _, shares := range [][]float64{
		{0.5, 0.5, 0.5}, {-1, 0.3, 0.9}, {0, -1, -1}, {0.2, 0.7, 0}, {-1, -1, -1},
	} {
		c.Rates(shares, reused)
		fresh := make([]float64, 3)
		c.Rates(shares, fresh)
		for i := range fresh {
			if math.Float64bits(reused[i]) != math.Float64bits(fresh[i]) {
				t.Fatalf("shares %v: core %d rate %v in a reused slice, %v in a fresh one", shares, i, reused[i], fresh[i])
			}
		}
	}
}

func TestCPURatesPanicsOnLengthMismatch(t *testing.T) {
	for _, tc := range []struct {
		name          string
		shares, rates []float64
	}{
		{"shares", []float64{0.5}, make([]float64, 2)},
		{"rates", []float64{0.5, 0.5}, make([]float64, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic on mismatched %s", tc.name)
				}
			}()
			Core2Duo6600().Rates(tc.shares, tc.rates)
		})
	}
}

func newTestMachine(t *testing.T) *Machine {
	t.Helper()
	s := sim.New()
	m, err := NewMachine(s, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDiskSequentialFasterThanRandom(t *testing.T) {
	m := newTestMachine(t)
	s := m.Sim
	var seqDone, randDone sim.Time

	// Sequential: two adjacent reads of the same file.
	m.Disk.Submit("a", 0, 1<<20, false, callFunc(func() {}))
	m.Disk.Submit("a", 1<<20, 1<<20, false, callFunc(func() { seqDone = s.Now() }))
	s.Run()

	m2 := newTestMachine(t)
	s2 := m2.Sim
	m2.Disk.Submit("a", 0, 1<<20, false, callFunc(func() {}))
	m2.Disk.Submit("b", 5<<20, 1<<20, false, callFunc(func() { randDone = s2.Now() }))
	s2.Run()

	if seqDone >= randDone {
		t.Fatalf("sequential (%v) not faster than random (%v)", seqDone, randDone)
	}
}

func TestDiskFIFOAndStats(t *testing.T) {
	m := newTestMachine(t)
	var order []int
	m.Disk.Submit("a", 0, 4096, false, callFunc(func() { order = append(order, 1) }))
	m.Disk.Submit("a", 4096, 4096, true, callFunc(func() { order = append(order, 2) }))
	m.Disk.Submit("a", 8192, 4096, false, callFunc(func() { order = append(order, 3) }))
	if m.Disk.QueueDelay() <= 0 {
		t.Fatal("queue delay should be positive with pending requests")
	}
	m.Sim.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("completion order = %v", order)
	}
	if m.Disk.Reads != 2 || m.Disk.Writes != 1 {
		t.Fatalf("stats reads=%d writes=%d", m.Disk.Reads, m.Disk.Writes)
	}
	if m.Disk.BytesRead != 8192 || m.Disk.BytesWritten != 4096 {
		t.Fatalf("bytes read=%d written=%d", m.Disk.BytesRead, m.Disk.BytesWritten)
	}
	if u := m.Disk.Utilization(); u <= 0 || u > 1.0001 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestDiskTransferTimeScalesWithSize(t *testing.T) {
	m := newTestMachine(t)
	m.Disk.JitterRel = 0
	var t1, t2 sim.Time
	m.Disk.Submit("a", 0, 1<<20, false, callFunc(func() { t1 = m.Sim.Now() }))
	m.Sim.Run()
	start := m.Sim.Now()
	m.Disk.Submit("b", 0, 32<<20, false, callFunc(func() { t2 = m.Sim.Now() - start }))
	m.Sim.Run()
	// 32 MB at 60 MB/s ≈ 533 ms ≫ 1 MB ≈ 17 ms (plus seek each).
	if t2 < 20*t1/2 {
		t.Fatalf("32MB (%v) not ~32x slower than 1MB (%v)", t2, t1)
	}
}

func TestDiskNegativeSizePanics(t *testing.T) {
	m := newTestMachine(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative size")
		}
	}()
	m.Disk.Submit("a", 0, -1, false, nil)
}

func TestLinkSerializationAndDelivery(t *testing.T) {
	s := sim.New()
	l := FastEthernet(s)
	var arrived sim.Time
	l.Transmit(MSS+TCPHeaderBytes, callFunc(func() { arrived = s.Now() }))
	s.Run()
	// 1538 wire bytes at 100 Mbps = 123.04 us + 60 us propagation.
	want := l.SerializationTime(MSS+TCPHeaderBytes+EthernetOverhead) + l.PropDelay
	if arrived != want {
		t.Fatalf("arrival = %v, want %v", arrived, want)
	}
	if l.Frames != 1 {
		t.Fatalf("frames = %d", l.Frames)
	}
}

func TestLinkBackpressure(t *testing.T) {
	s := sim.New()
	l := FastEthernet(s)
	free1 := l.Transmit(1500, nil)
	free2 := l.Transmit(1500, nil)
	if free2 <= free1 {
		t.Fatalf("second frame did not queue: %v <= %v", free2, free1)
	}
	if l.Backlog() <= 0 {
		t.Fatal("backlog should be positive")
	}
}

// callFunc adapts a closure to sim.Caller for the disk and link tests.
type callFunc func()

func (f callFunc) Fire(sim.Time) { f() }

func TestLinkOversizeFramePanics(t *testing.T) {
	for _, ipBytes := range []int64{MTU + 1, MTU + TCPHeaderBytes + 1} {
		func() {
			s := sim.New()
			l := FastEthernet(s)
			defer func() {
				if recover() == nil {
					t.Errorf("no panic on a %d-byte frame", ipBytes)
				}
			}()
			l.Transmit(ipBytes, nil)
		}()
	}
	// The MTU itself fits.
	FastEthernet(sim.New()).Transmit(MTU, nil)
}

func TestTheoreticalTCPGoodput(t *testing.T) {
	s := sim.New()
	l := FastEthernet(s)
	g := l.TheoreticalTCPGoodputBps() / 1e6
	if g < 94 || g > 98 {
		t.Fatalf("theoretical goodput = %.2f Mbps, want ~95-97", g)
	}
}

func TestMachineDefaults(t *testing.T) {
	m := newTestMachine(t)
	if m.CPU.Cores != 2 || m.CPU.FreqHz != 2.4e9 {
		t.Fatalf("default CPU = %+v", m.CPU)
	}
	if m.RAMBytes != 1<<30 {
		t.Fatalf("default RAM = %d", m.RAMBytes)
	}
}

func TestMachineBadConfig(t *testing.T) {
	s := sim.New()
	if _, err := NewMachine(s, Config{CPU: CPU{Cores: -1, FreqHz: 1}}); err == nil {
		t.Fatal("accepted negative cores")
	}
	if _, err := NewMachine(s, Config{RAMBytes: -5}); err == nil {
		t.Fatal("accepted negative RAM")
	}
}

func TestMemoryCommitAccounting(t *testing.T) {
	m := newTestMachine(t)
	const vmRAM = 300 << 20 // the paper's 300 MB guest
	if err := m.Commit(vmRAM); err != nil {
		t.Fatal(err)
	}
	if m.Committed() != vmRAM {
		t.Fatalf("committed = %d", m.Committed())
	}
	// A second and third VM would exceed 1 GB with the host's own use...
	if err := m.Commit(vmRAM); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(2 * vmRAM); err == nil {
		t.Fatal("overcommit accepted")
	}
	m.Release(vmRAM)
	if m.Committed() != vmRAM {
		t.Fatalf("after release committed = %d", m.Committed())
	}
	if err := m.Commit(-1); err == nil {
		t.Fatal("negative commit accepted")
	}
}

func TestReleaseTooMuchPanics(t *testing.T) {
	m := newTestMachine(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on over-release")
		}
	}()
	m.Release(1)
}
