package iobench

import (
	"fmt"

	"vmdg/internal/cost"
)

// Sizes returns the paper's file-size sweep: 128 KB, 256 KB, ..., 32 MB.
func Sizes() []int64 {
	var out []int64
	for s := int64(128 << 10); s <= 32<<20; s *= 2 {
		out = append(out, s)
	}
	return out
}

// chunk is the per-syscall transfer size of the benchmark's read/write
// loop (Python file I/O through a 64 KB buffer).
const chunk = 64 << 10

// Data-generation cost: the benchmark fills its write buffers from a
// pseudo-random generator (≈4 integer ops plus streaming stores per byte,
// interpreter overhead included).
const (
	genIntPerByte = 4.0
	genMemPerByte = 0.25
)

// FileName names the benchmark file for a given size.
func FileName(size int64) string { return fmt.Sprintf("iobench-%dK", size>>10) }

// Profile captures one file size's whole benchmark run as one guest
// program: the write phase, then the read phase.
func Profile(size int64) *cost.Profile {
	m := cost.NewMeter(fmt.Sprintf("iobench-%dK", size>>10))
	writePhase(m, size)
	readPhase(m, size)
	return m.Profile()
}

// WriteProfile captures the write phase for one file size.
func WriteProfile(size int64) *cost.Profile {
	m := cost.NewMeter(fmt.Sprintf("iobench-write-%dK", size>>10))
	writePhase(m, size)
	return m.Profile()
}

// ReadProfile captures the read phase for one file size.
func ReadProfile(size int64) *cost.Profile {
	m := cost.NewMeter(fmt.Sprintf("iobench-read-%dK", size>>10))
	readPhase(m, size)
	return m.Profile()
}

// writePhase generates random data, writes it in chunks, and fsyncs.
func writePhase(m *cost.Meter, size int64) {
	name := FileName(size)
	for off := int64(0); off < size; off += chunk {
		n := min(size-off, chunk)
		m.Ops(cost.Counts{
			IntOps: uint64(genIntPerByte * float64(n)),
			MemOps: uint64(genMemPerByte * float64(n)),
		})
		m.DiskWrite(name, off, n)
	}
	m.DiskSync(name)
}

// readPhase drops caches, then reads the file back in chunks, verifying
// as it goes (a checksum pass over the data).
func readPhase(m *cost.Meter, size int64) {
	name := FileName(size)
	m.DropCaches()
	for off := int64(0); off < size; off += chunk {
		n := min(size-off, chunk)
		m.DiskRead(name, off, n)
		m.Ops(cost.Counts{IntOps: uint64(n), MemOps: uint64(n) / 8}) // checksum pass
	}
}
