package vmm_test

import (
	"testing"

	"vmdg/internal/sim"
	"vmdg/internal/vmm"
	"vmdg/internal/vmm/profiles"
)

// diskChain keeps one command in flight on a virtual disk: each
// completion submits the next, alternating 3 MB reads and writes of the
// same guest extent. The chain is each command's Caller, so a submit
// allocates nothing.
type diskChain struct {
	d         *vmm.VirtualDisk
	write     bool
	completed int
}

func (c *diskChain) submit() { c.d.Submit(0, 3<<20, c.write, c) }

// Fire implements sim.Caller: the command landed.
func (c *diskChain) Fire(sim.Time) {
	c.completed++
	c.write = !c.write
	c.submit()
}

// TestVirtualDiskAllocatesNothing: a guest command travels its chunks in
// a recycled command that is the Caller of every hop, and the image
// translates into the command's reused buffer, so back-to-back commands
// through an unpowered VM's disk allocate nothing. The COW image's
// clusters are allocated by the writes of the warm-up second. The
// windows run inside one AllocsPerRun call, so its count is exact.
func TestVirtualDiskAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		name  string
		prof  vmm.Profile
		image vmm.Image // nil: the default raw image
	}{
		{"vmplayer", profiles.VMwarePlayer(), nil},
		{"qemu", profiles.QEMU(), nil},
		{"native", profiles.Native(), nil},
		{"qemu-cow", profiles.QEMU(), vmm.NewCOWImage("overlay.img", vmm.NewRawImage("base.img", 0, 1<<30), 2<<30)},
	} {
		t.Run(c.name, func(t *testing.T) {
			host, vm := testVM(t, vmm.Config{Prof: c.prof, Image: c.image})
			chain := &diskChain{d: vm.Disk}
			chain.submit()
			host.RunFor(sim.Second)

			completed := chain.completed
			allocs := testing.AllocsPerRun(1, func() {
				for range windows {
					host.RunFor(100 * sim.Millisecond)
				}
			})
			if allocs != 0 {
				t.Errorf("%v allocations in %d windows of 100 ms of chained disk commands, want 0", allocs, windows)
			}
			if chain.completed == completed {
				t.Fatal("no command completed")
			}
		})
	}
}

// BenchmarkVirtualDisk times the virtual disk path: one op is 100 ms of
// virtual time of chained 3 MB reads and writes through an unpowered
// VMware Player VM's disk.
func BenchmarkVirtualDisk(b *testing.B) {
	host, vm := testVM(b, vmm.Config{Prof: profiles.VMwarePlayer()})
	(&diskChain{d: vm.Disk}).submit()
	host.RunFor(sim.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		host.RunFor(100 * sim.Millisecond)
	}
}
