package netbench

import (
	"testing"

	"vmdg/internal/cost"
	"vmdg/internal/sim"
)

func TestProfileTotals(t *testing.T) {
	p := Profile(StreamBytes)
	sent, _ := p.TotalNetBytes()
	if sent != StreamBytes {
		t.Fatalf("profile sends %d, want %d", sent, StreamBytes)
	}
	for _, st := range p.Steps {
		if st.Kind == cost.StepNetSend && st.Conn != ConnID {
			t.Fatalf("send on conn %d, want %d", st.Conn, ConnID)
		}
	}
}

func TestProfileNonAlignedTotal(t *testing.T) {
	p := Profile(100000)
	sent, _ := p.TotalNetBytes()
	if sent != 100000 {
		t.Fatalf("sent %d", sent)
	}
}

func TestProfileRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero-byte stream")
		}
	}()
	Profile(0)
}

// udpReference builds the UDP sender as one Meter capture of every
// datagram: a send and a sleep of one interval per pass of the pacing
// loop.
func udpReference(offeredBps float64, duration sim.Time) *cost.Profile {
	interval := sim.FromSeconds(UDPDatagram * 8 / offeredBps)
	m := cost.NewMeter("udp-reference")
	for at := sim.Time(0); at < duration; at += interval {
		m.NetSend(ConnID, UDPDatagram)
		m.Sleep(interval)
	}
	return m.Profile()
}

// TestUDPProfileMatchesMeter: the paced sender yields, step for step,
// what a Meter captures datagram by datagram, and then ends. Building
// and draining it allocates the same few objects at 1 s and at 4 s, so
// its allocations do not grow with the number of datagrams.
func TestUDPProfileMatchesMeter(t *testing.T) {
	const offered = 10e6
	for _, d := range []sim.Time{sim.Second, 4 * sim.Second} {
		want := udpReference(offered, d).Steps
		p := UDPProfile(offered, d)
		for i, w := range want {
			if got, ok := p.Next(); !ok || got != w {
				t.Fatalf("%v: step %d of %d is %v, %v, want %v", d, i, len(want), got, ok, w)
			}
		}
		if got, ok := p.Next(); ok {
			t.Fatalf("%v: step %d is %v, want the end", d, len(want), got)
		}
	}
	allocs := func(d sim.Time) float64 {
		return testing.AllocsPerRun(1, func() {
			p := UDPProfile(offered, d)
			for _, ok := p.Next(); ok; _, ok = p.Next() {
			}
		})
	}
	if short, long := allocs(sim.Second), allocs(4*sim.Second); short != long || long > 10 {
		t.Fatalf("building and draining the sender allocated %v times over 1 s and %v over 4 s, want the same few", short, long)
	}
}

func TestMbps(t *testing.T) {
	// 10 MB in 1 s = 83.886 Mbps.
	got := Mbps(10<<20, sim.Second)
	if got < 83.8 || got > 84.0 {
		t.Fatalf("Mbps = %v", got)
	}
	if Mbps(1, 0) != 0 {
		t.Fatal("zero elapsed should yield 0")
	}
}
