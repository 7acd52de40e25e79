package vmm

import (
	"fmt"

	"vmdg/internal/hw"
	"vmdg/internal/sim"
)

// VirtualDisk implements guestos.BlockDevice by emulating a disk
// controller: guest commands are split into profile-bounded chunks, each
// chunk pays the profile's per-command latency and emulation CPU, is
// translated through the disk image, and finally lands on the host disk.
// Chunks of one command are serviced strictly in order, as a single
// emulated IDE/SCSI command queue would. A command travels its chunks in
// one recycled diskCmd, so a guest command allocates nothing at steady
// state.
type VirtualDisk struct {
	vm    *VM
	image Image
	disk  *hw.Disk
	s     *sim.Simulator

	free []*diskCmd // recycled commands

	// Stats
	Commands uint64
	Chunks   uint64
}

func newVirtualDisk(vm *VM, image Image, disk *hw.Disk) *VirtualDisk {
	return &VirtualDisk{vm: vm, image: image, disk: disk, s: vm.hostOS.Sim}
}

// diskCmd carries one guest command through its chunks. It is the
// sim.Caller of each chunk's emulation delay and of each of the chunk's
// host-disk completions.
type diskCmd struct {
	d          *VirtualDisk
	off, bytes int64 // the part of the command no chunk has covered yet
	write      bool
	done       sim.Caller
	ext        []Extent // the current chunk's host extents
	onDisk     int      // how many of ext are still on the host disk
}

// Fire implements sim.Caller: the chunk's emulation delay ended, or one
// of its extents landed.
func (c *diskCmd) Fire(now sim.Time) {
	if c.onDisk == 0 {
		// Emulated: the chunk's extents go to the host disk in order.
		c.onDisk = len(c.ext)
		for _, e := range c.ext {
			c.d.disk.Submit(e.FileID, e.HostOff, e.Bytes, c.write, c)
		}
		return
	}
	c.onDisk--
	if c.onDisk > 0 {
		return
	}
	if c.bytes > 0 {
		c.d.startChunk(c)
		return
	}
	// The command goes back to the pool first, because done may submit
	// again and take it.
	done := c.done
	c.done = nil
	c.d.free = append(c.d.free, c)
	done.Fire(now)
}

// Submit implements guestos.BlockDevice: the command's first chunk
// starts now, and done fires when its last chunk lands.
func (d *VirtualDisk) Submit(off, bytes int64, write bool, done sim.Caller) {
	if bytes <= 0 {
		panic(fmt.Sprintf("vmm: virtual disk request of %d bytes", bytes))
	}
	d.Commands++
	if limit := d.vm.Prof.DiskChunk; limit > 0 {
		d.Chunks += uint64((bytes + limit - 1) / limit)
	} else {
		d.Chunks++
	}
	var c *diskCmd
	if k := len(d.free); k > 0 {
		c = d.free[k-1]
		d.free = d.free[:k-1]
	} else {
		c = &diskCmd{d: d}
	}
	c.off, c.bytes, c.write, c.done = off, bytes, write, done
	d.startChunk(c)
}

// startChunk starts c's next chunk, at most the profile's DiskChunk
// bytes: it pays the emulation CPU, is translated through the image, and
// waits out the per-command latency before it reaches the host disk.
func (d *VirtualDisk) startChunk(c *diskCmd) {
	n := c.bytes
	if limit := d.vm.Prof.DiskChunk; limit > 0 && n > limit {
		n = limit
	}
	d.vm.chargeEmulation(d.vm.Prof.DiskCPUPerOp + d.image.TranslateCost())
	c.ext = d.image.Translate(c.ext[:0], c.off, n, c.write)
	c.off += n
	c.bytes -= n
	d.s.Schedule(d.s.Now()+d.vm.Prof.DiskPerOp, "vdisk-emu", c)
}
