package cost

import (
	"math"
	"testing"
	"testing/quick"

	"vmdg/internal/sim"
)

func TestMixNormalized(t *testing.T) {
	m := Mix{Int: 2, FP: 1, Mem: 1}
	n := m.Normalized()
	if math.Abs(n.Total()-1) > 1e-12 {
		t.Fatalf("normalized total = %v", n.Total())
	}
	if math.Abs(n.Int-0.5) > 1e-12 || math.Abs(n.FP-0.25) > 1e-12 {
		t.Fatalf("normalized = %+v", n)
	}
	if z := (Mix{}).Normalized(); z.Int != 1 {
		t.Fatalf("zero mix normalized to %+v, want pure int", z)
	}
}

func TestMixNormalizedProperty(t *testing.T) {
	f := func(a, b, c, d uint16) bool {
		m := Mix{Int: float64(a), FP: float64(b), Mem: float64(c), Kernel: float64(d)}
		n := m.Normalized()
		return math.Abs(n.Total()-1) < 1e-9 &&
			n.Int >= 0 && n.FP >= 0 && n.Mem >= 0 && n.Kernel >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlend(t *testing.T) {
	a := Mix{Int: 1}
	b := Mix{FP: 1}
	got := Blend(a, 3, b, 1)
	if math.Abs(got.Int-0.75) > 1e-12 || math.Abs(got.FP-0.25) > 1e-12 {
		t.Fatalf("Blend = %+v", got)
	}
	if Blend(a, 0, b, 0) != a {
		t.Fatal("zero-weight blend should return first mix")
	}
}

func TestCountsCyclesAndMix(t *testing.T) {
	c := Counts{IntOps: 100, FPOps: 50, MemOps: 10, KernelOps: 20}
	want := 100*CPIInt + 50*CPIFP + 10*CPIMem + 20*CPIKernel
	if got := c.Cycles(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Cycles = %v, want %v", got, want)
	}
	m := c.Mix()
	if math.Abs(m.Total()-1) > 1e-12 {
		t.Fatalf("mix total = %v", m.Total())
	}
	if math.Abs(m.Int-100*CPIInt/want) > 1e-12 {
		t.Fatalf("mix int = %v", m.Int)
	}
	if zm := (Counts{}).Mix(); zm.Int != 1 {
		t.Fatalf("zero counts mix = %+v", zm)
	}
}

func TestCountsAdd(t *testing.T) {
	a := Counts{IntOps: 1, FPOps: 2, MemOps: 3, KernelOps: 4}
	a.Add(Counts{IntOps: 10, FPOps: 20, MemOps: 30, KernelOps: 40})
	if a != (Counts{IntOps: 11, FPOps: 22, MemOps: 33, KernelOps: 44}) {
		t.Fatalf("Add = %+v", a)
	}
}

func TestMeterCoalescesCompute(t *testing.T) {
	m := NewMeter("t")
	for i := 0; i < 1000; i++ {
		m.Int(100)
	}
	p := m.Profile()
	if len(p.Steps) != 1 {
		t.Fatalf("expected 1 coalesced step, got %d", len(p.Steps))
	}
	if want := 1000 * 100 * CPIInt; math.Abs(p.TotalCycles()-want) > 1e-6 {
		t.Fatalf("TotalCycles = %v, want %v", p.TotalCycles(), want)
	}
}

func TestMeterSplitsLargeCompute(t *testing.T) {
	m := NewMeter("t")
	m.Int(uint64(3.5 * 50e6)) // 3.5 × maxStepCycles of pure int work
	p := m.Profile()
	if len(p.Steps) != 4 {
		t.Fatalf("expected 4 steps for 3.5× max, got %d", len(p.Steps))
	}
	for i, s := range p.Steps {
		if s.Cycles > 50e6+1 {
			t.Fatalf("step %d exceeds cap: %v", i, s.Cycles)
		}
	}
}

func TestMeterIOStepsFlushCompute(t *testing.T) {
	m := NewMeter("t")
	m.Int(1000)
	m.DiskRead("f", 0, 4096)
	m.FP(500)
	m.DiskWrite("f", 4096, 8192)
	m.DiskSync("f")
	p := m.Profile()
	// Expect: compute(int+kernel), read, compute(fp+kernel), write,
	// compute(kernel), sync.
	kinds := []StepKind{}
	for _, s := range p.Steps {
		kinds = append(kinds, s.Kind)
	}
	want := []StepKind{StepCompute, StepDiskRead, StepCompute, StepDiskWrite, StepCompute, StepDiskSync}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
	r, w := p.TotalDiskBytes()
	if r != 4096 || w != 8192 {
		t.Fatalf("disk bytes = %d,%d", r, w)
	}
}

func TestMeterNetAndSleepAndClock(t *testing.T) {
	m := NewMeter("t")
	m.NetSend(1, 1000)
	m.NetRecv(1, 2000)
	m.Sleep(5 * sim.Millisecond)
	m.Clock()
	p := m.Profile()
	s, r := p.TotalNetBytes()
	if s != 1000 || r != 2000 {
		t.Fatalf("net bytes = %d,%d", s, r)
	}
	var sawSleep, sawClock bool
	for _, st := range p.Steps {
		if st.Kind == StepSleep && st.Dur == 5*sim.Millisecond {
			sawSleep = true
		}
		if st.Kind == StepClock {
			sawClock = true
		}
	}
	if !sawSleep || !sawClock {
		t.Fatalf("missing sleep/clock steps: %v", p.Steps)
	}
}

func TestSyscallsChargeKernelCycles(t *testing.T) {
	m := NewMeter("t")
	m.DiskRead("f", 0, 1<<20)
	p := m.Profile()
	mix := p.OverallMix()
	if mix.Kernel < 0.99 {
		t.Fatalf("pure-syscall profile kernel share = %v, want ~1", mix.Kernel)
	}
	if p.TotalCycles() < float64(syscallOverheadOps) {
		t.Fatalf("syscall charged too few cycles: %v", p.TotalCycles())
	}
}

func TestProfileIter(t *testing.T) {
	m := NewMeter("t")
	m.Int(10)
	m.DiskRead("f", 0, 1)
	p := m.Profile()
	it := p.Iter()
	n := 0
	for {
		_, ok := it.Next()
		if !ok {
			break
		}
		n++
	}
	if n != len(p.Steps) {
		t.Fatalf("iterated %d, want %d", n, len(p.Steps))
	}
	if _, ok := it.Next(); ok {
		t.Fatal("exhausted iterator yielded a step")
	}
}

func TestProfileRepeat(t *testing.T) {
	m := NewMeter("t")
	m.Int(10)
	m.DiskRead("f", 0, 1)
	p := m.Profile()
	const laps = 5
	r := p.Repeat(laps)
	for lap := 0; lap < laps; lap++ {
		for i, want := range p.Steps {
			if got, ok := r.Next(); !ok || got != want {
				t.Fatalf("lap %d, step %d is %v, %v, want %v", lap, i, got, ok, want)
			}
		}
		if r.Laps != lap+1 {
			t.Fatalf("after lap %d, Laps = %d", lap, r.Laps)
		}
	}
	if got, ok := r.Next(); ok {
		t.Fatalf("step after %d laps is %v, want the end", laps, got)
	}
	if got, ok := p.Repeat(0).Next(); ok {
		t.Fatalf("Repeat(0) yielded %v", got)
	}
}

func TestLoopProgram(t *testing.T) {
	m := NewMeter("t")
	m.Int(10)
	m.FP(10)
	p := m.Profile()
	l := Loop(p)
	steps := len(p.Steps)
	for i := 0; i < steps*3; i++ {
		if _, ok := l.Next(); !ok {
			t.Fatal("Loop terminated")
		}
	}
	if l.Laps != 3 {
		t.Fatalf("Laps = %d, want 3", l.Laps)
	}
}

func TestLoopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Loop over empty profile did not panic")
		}
	}()
	Loop(&Profile{})
}

func TestOverallMix(t *testing.T) {
	m := NewMeter("t")
	m.Int(1000) // 1000 cycles int
	p1 := m.Profile()
	if mix := p1.OverallMix(); mix.Int < 0.99 {
		t.Fatalf("pure int mix = %+v", mix)
	}
	if mix := (&Profile{}).OverallMix(); mix.Int != 1 {
		t.Fatalf("empty profile mix = %+v", mix)
	}
}

func TestStepString(t *testing.T) {
	for _, s := range []Step{
		{Kind: StepCompute, Cycles: 100, Mix: Mix{Int: 1}},
		{Kind: StepDiskRead, File: "f", Bytes: 10},
		{Kind: StepNetSend, Conn: 1, Bytes: 10},
		{Kind: StepSleep, Dur: sim.Millisecond},
		{Kind: StepClock},
		{Kind: StepKind(99)},
	} {
		if s.String() == "" {
			t.Fatalf("empty String for %v", s.Kind)
		}
	}
}
