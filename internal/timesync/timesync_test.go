package timesync

import (
	"testing"
	"testing/quick"
	"time"

	"vmdg/internal/guestos"
	"vmdg/internal/hw"
	"vmdg/internal/sim"
)

func TestPacketRoundTrip(t *testing.T) {
	p := Packet{Seq: 42, T1: 1234567890, T2: -99}
	back, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back != p {
		t.Fatalf("round trip: %+v vs %+v", back, p)
	}
}

func TestPacketRoundTripProperty(t *testing.T) {
	f := func(seq uint64, t1, t2 int64) bool {
		p := Packet{Seq: seq, T1: t1, T2: t2}
		back, err := Unmarshal(p.Marshal())
		return err == nil && back == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsJunk(t *testing.T) {
	if _, err := Unmarshal([]byte("short")); err == nil {
		t.Fatal("short packet accepted")
	}
	bad := make([]byte, PacketSize)
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestOffsetFormula(t *testing.T) {
	// Client at 1000, server at 5000 (offset +4000), symmetric 200 rtt.
	// t1=1000 (server receives at its 5100), t3=1200.
	got := Offset(1000, 5100, 1200)
	if got != 4000 {
		t.Fatalf("offset = %v, want 4000", got)
	}
}

func TestRealServerAndClient(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Server clock deliberately 5 s in the future.
	const skew = 5 * time.Second
	srv.Clock = func() time.Time { return time.Now().Add(skew) }
	go srv.Serve()

	offset, rtt, err := Query(srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 || rtt > time.Second {
		t.Fatalf("rtt = %v", rtt)
	}
	if offset < skew-500*time.Millisecond || offset > skew+500*time.Millisecond {
		t.Fatalf("offset = %v, want ≈%v", offset, skew)
	}
}

func TestQueryAgainstDeadServer(t *testing.T) {
	if _, _, err := Query("127.0.0.1:1", 100*time.Millisecond); err == nil {
		t.Fatal("query against dead port succeeded")
	}
}

// skewedClock drifts at a fixed rate behind true time.
type skewedClock struct {
	s    *sim.Simulator
	skew sim.Time
}

func (c skewedClock) GuestNow() sim.Time { return c.s.Now() - c.skew }

func TestSimClientCorrectsSkew(t *testing.T) {
	s := sim.New()
	nic := &testNIC{tx: hw.FastEthernet(s), rx: hw.FastEthernet(s)}
	k := guestos.NewKernel(guestos.KernelConfig{Sim: s, NIC: nic})
	sock := k.Net.OpenUDP(1)

	guest := skewedClock{s: s, skew: 700 * sim.Millisecond}
	host := guestos.ExactClock{Sim: s}
	c := NewSimClient(sock, guest, host)

	s.RunUntil(sim.Second)
	c.Poke()
	s.RunUntil(2 * sim.Second)
	if c.Collect() != 1 || !c.Synced() {
		t.Fatal("no reply collected")
	}
	// Estimated offset ≈ +700 ms (±path asymmetry ≪ 1 ms).
	if off := c.Offset(); off < 699*sim.Millisecond || off > 701*sim.Millisecond {
		t.Fatalf("offset = %v, want ≈700ms", off)
	}
	// Corrected clock within 1 ms of truth.
	if diff := c.Now() - s.Now(); diff < -sim.Millisecond || diff > sim.Millisecond {
		t.Fatalf("corrected clock off by %v", diff)
	}
}

// testNIC: direct link attachment for the simulated client tests.
type testNIC struct{ tx, rx *hw.Link }

func (n *testNIC) SendSegment(p guestos.Packet)   { n.tx.Transmit(p.IPBytes, &arrival{p}) }
func (n *testNIC) ReturnSegment(p guestos.Packet) { n.rx.Transmit(p.IPBytes, &arrival{p}) }

// arrival hands a packet to its endpoint when its frame arrives.
type arrival struct{ p guestos.Packet }

func (a *arrival) Fire(sim.Time) { a.p.To.Deliver(a.p) }
