package vmm_test

import (
	"testing"

	"vmdg/internal/bench/netbench"
	"vmdg/internal/cost"
	"vmdg/internal/guestos"
	"vmdg/internal/hostos"
	"vmdg/internal/hw"
	"vmdg/internal/sim"
	"vmdg/internal/vmm"
	"vmdg/internal/vmm/profiles"
)

// testVM builds an unpowered VM of cfg on a fresh default machine.
func testVM(tb testing.TB, cfg vmm.Config) (*hostos.OS, *vmm.VM) {
	tb.Helper()
	m, err := hw.NewMachine(sim.New(), hw.Config{Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	host := hostos.Boot(m)
	vm, err := vmm.New(host, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return host, vm
}

// streamVM powers a VM under prof whose guest runs prog, an iperf sender
// on netbench's connection, and runs 200 ms of warm-up so the stream,
// the frame pool and the event free list reach steady state.
func streamVM(tb testing.TB, prof vmm.Profile, prog cost.Program) (*hostos.OS, *guestos.TCPConn) {
	tb.Helper()
	host, vm := testVM(tb, vmm.Config{Prof: prof})
	conn := vm.Kernel.Net.Dial(netbench.ConnID)
	vm.SpawnGuest("iperf", prog)
	vm.PowerOn(hostos.PrioNormal)
	host.RunFor(200 * sim.Millisecond)
	return host, conn
}

// windows counts the RunFor windows an allocation test measures. They
// run inside one AllocsPerRun call, so its count is exact: AllocsPerRun
// divides by the number of calls and truncates.
const windows = 20

// TestTCPStreamAllocatesNothing: a TCP segment and its ACK travel the
// guest stack, the virtual NIC's queues and the links as values in
// recycled frames, so a steady stream allocates nothing, bridged or
// through the NAT proxy. Each window is long enough for ACKs to arrive:
// the NAT stream acks its 64 KB window in bursts about 140 ms apart.
func TestTCPStreamAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		prof   vmm.Profile
		window sim.Time
	}{
		{profiles.Native(), 10 * sim.Millisecond},
		{profiles.VMwarePlayer(), 10 * sim.Millisecond},
		{profiles.VMwarePlayerNAT(), 200 * sim.Millisecond},
		{profiles.QEMU(), 10 * sim.Millisecond},
	} {
		t.Run(c.prof.Name, func(t *testing.T) {
			host, conn := streamVM(t, c.prof, netbench.Profile(64<<20).Iter())
			stalled := 0
			allocs := testing.AllocsPerRun(1, func() {
				for range windows {
					acked := conn.Acked
					host.RunFor(c.window)
					if conn.Acked == acked {
						stalled++
					}
				}
			})
			if allocs != 0 {
				t.Errorf("%v allocations in %d windows of %v of a %s stream, want 0", allocs, windows, c.window, c.prof.Name)
			}
			if stalled > 0 {
				t.Errorf("%d of %d windows of %v acked nothing", stalled, 2*windows, c.window)
			}
		})
	}
}

// TestGuestSleepAllocatesNothing: a guest sleep ends through a pointer
// alias of the guest thread, and the VMM's service thread sleeps through
// one of its host thread, so a guest looping compute and a 2 ms sleep
// allocates nothing with the service thread on.
func TestGuestSleepAllocatesNothing(t *testing.T) {
	host, vm := testVM(t, vmm.Config{Prof: profiles.VMwarePlayer()})
	vm.SpawnGuest("sleeper", cost.Loop(&cost.Profile{Name: "sleeper", Steps: []cost.Step{
		{Kind: cost.StepCompute, Cycles: 1e6, Mix: cost.Mix{Int: 1}},
		{Kind: cost.StepSleep, Dur: 2 * sim.Millisecond},
	}}))
	vm.PowerOn(hostos.PrioNormal)
	host.RunFor(200 * sim.Millisecond)

	interrupts := vm.Kernel.Interrupts
	allocs := testing.AllocsPerRun(1, func() {
		for range windows {
			host.RunFor(100 * sim.Millisecond)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations in %d windows of 100 ms of a sleeping guest, want 0", allocs, windows)
	}
	if vm.Kernel.Interrupts == interrupts {
		t.Fatal("no guest sleep ended")
	}
}

// flood sends a maximal datagram every interval from outside the guest,
// so no guest sleep or vCPU step is measured with the NIC path.
type flood struct {
	s     *sim.Simulator
	sock  *guestos.UDPSocket
	every sim.Time
}

func (f *flood) Fire(now sim.Time) {
	f.sock.SendTo(guestos.Datagram{Bytes: netbench.UDPDatagram})
	f.s.Schedule(now+f.every, "flood", f)
}

// TestUDPFloodAllocatesNothing: datagrams offered faster than the NAT
// proxy serves them fill its queue, and neither a delivered nor a
// dropped datagram allocates.
func TestUDPFloodAllocatesNothing(t *testing.T) {
	host, vm := testVM(t, vmm.Config{Prof: profiles.VMwarePlayerNAT()})
	sock := vm.Kernel.Net.OpenUDP(netbench.ConnID)
	sock.Sink = func(guestos.Datagram) {}
	f := &flood{s: host.Sim, sock: sock, every: 200 * sim.Microsecond}
	host.Sim.Schedule(0, "flood", f)
	host.RunFor(200 * sim.Millisecond)

	drops, delivered := vm.NIC.Drops(), sock.SinkBytes
	allocs := testing.AllocsPerRun(1, func() {
		for range windows {
			host.RunFor(10 * sim.Millisecond)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations in %d windows of 10 ms of a NAT UDP flood, want 0", allocs, windows)
	}
	if vm.NIC.Drops() == drops {
		t.Error("the flood dropped no datagram")
	}
	if sock.SinkBytes == delivered {
		t.Error("the flood delivered no datagram")
	}
}

// BenchmarkTCPStream times the guest network path: one op is 10 ms of
// virtual time of a bridged VMware Player stream that never ends.
func BenchmarkTCPStream(b *testing.B) {
	host, _ := streamVM(b, profiles.VMwarePlayer(), cost.Loop(netbench.Profile(netbench.StreamBytes)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		host.RunFor(10 * sim.Millisecond)
	}
}
