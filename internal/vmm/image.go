package vmm

import (
	"fmt"
	"sort"
)

// Image maps guest block addresses to host-disk addresses. Implementations
// also report a per-operation translation cost in host cycles, so richer
// formats (copy-on-write overlays) are visibly more expensive than raw
// images — the flexibility-vs-performance trade-off Csaba et al. accept
// for QEMU's overlay images (§5).
type Image interface {
	// Translate maps a guest extent to one or more host extents, appends
	// them to dst and returns the result, so a caller that passes the
	// same buffer each time allocates nothing once it has grown. A write
	// may allocate (COW); reads of unallocated overlay blocks fall
	// through to the base image.
	Translate(dst []Extent, off, bytes int64, write bool) []Extent
	// TranslateCost is the host-cycle cost of one Translate call.
	TranslateCost() float64
	// SizeBytes is the virtual disk capacity.
	SizeBytes() int64
}

// Extent is a contiguous run on the host disk.
type Extent struct {
	HostOff int64
	Bytes   int64
	// FileID distinguishes the backing files (base vs overlay) so the host
	// disk model sees distinct seek targets.
	FileID string
}

// RawImage is a flat preallocated image file: translation is a constant
// offset into one host file.
type RawImage struct {
	Name string
	Base int64 // placement of the image file on the host disk
	Size int64
}

// NewRawImage creates a raw image of size bytes placed at host offset base.
func NewRawImage(name string, base, size int64) *RawImage {
	if size <= 0 {
		panic(fmt.Sprintf("vmm: raw image size %d", size))
	}
	return &RawImage{Name: name, Base: base, Size: size}
}

// Translate implements Image.
func (r *RawImage) Translate(dst []Extent, off, bytes int64, _ bool) []Extent {
	if off < 0 || off+bytes > r.Size {
		panic(fmt.Sprintf("vmm: raw image access [%d,%d) outside size %d", off, off+bytes, r.Size))
	}
	return append(dst, Extent{HostOff: r.Base + off, Bytes: bytes, FileID: r.Name})
}

// TranslateCost implements Image: a raw offset add is nearly free.
func (r *RawImage) TranslateCost() float64 { return 200 }

// SizeBytes implements Image.
func (r *RawImage) SizeBytes() int64 { return r.Size }

// cowClusterSize is the allocation granularity of COW overlays (64 KB,
// matching qcow-family formats).
const cowClusterSize = 64 << 10

// COWImage overlays a writable delta file on a read-only base image. The
// first write to a cluster copies it into the overlay; reads prefer the
// overlay and fall back to the base. This is the mechanism that lets many
// VM instances share one base image (§5, Csaba et al.) and what makes the
// checkpoint/migration story cheap: only the overlay moves.
type COWImage struct {
	Name string
	Base Image

	// overlay maps cluster index -> host offset within the overlay file.
	overlay     map[int64]int64
	overlayBase int64 // placement of the overlay file on the host disk
	nextAlloc   int64

	// Stats
	AllocatedClusters int
	CopyOnWrites      uint64
}

// NewCOWImage stacks a fresh overlay (placed at host offset overlayBase)
// on base.
func NewCOWImage(name string, base Image, overlayBase int64) *COWImage {
	return &COWImage{
		Name:        name,
		Base:        base,
		overlay:     make(map[int64]int64),
		overlayBase: overlayBase,
	}
}

// Translate implements Image. It coalesces only the extents it appends.
func (c *COWImage) Translate(dst []Extent, off, bytes int64, write bool) []Extent {
	if off < 0 || off+bytes > c.SizeBytes() {
		panic(fmt.Sprintf("vmm: cow image access [%d,%d) outside size %d", off, off+bytes, c.SizeBytes()))
	}
	start, out := len(dst), dst
	for bytes > 0 {
		cluster := off / cowClusterSize
		inOff := off % cowClusterSize
		n := cowClusterSize - inOff
		if n > bytes {
			n = bytes
		}
		hostOff, allocated := c.overlay[cluster]
		switch {
		case allocated:
			out = append(out, Extent{HostOff: c.overlayBase + hostOff + inOff, Bytes: n, FileID: c.Name})
		case write:
			// Copy-on-write: allocate the cluster in the overlay.
			hostOff = c.nextAlloc
			c.nextAlloc += cowClusterSize
			c.overlay[cluster] = hostOff
			c.AllocatedClusters++
			c.CopyOnWrites++
			out = append(out, Extent{HostOff: c.overlayBase + hostOff + inOff, Bytes: n, FileID: c.Name})
		default:
			// Read of an unwritten cluster: serve from the base image.
			out = c.Base.Translate(out, off, n, false)
		}
		off += n
		bytes -= n
	}
	return out[:start+len(coalesceExtents(out[start:]))]
}

// TranslateCost implements Image: map lookups and allocation logic.
func (c *COWImage) TranslateCost() float64 { return 2500 }

// SizeBytes implements Image.
func (c *COWImage) SizeBytes() int64 { return c.Base.SizeBytes() }

// OverlayBytes reports how much delta data the overlay holds.
func (c *COWImage) OverlayBytes() int64 { return int64(c.AllocatedClusters) * cowClusterSize }

// OverlayTable exports the cluster map for checkpointing, in deterministic
// order.
func (c *COWImage) OverlayTable() [][2]int64 {
	out := make([][2]int64, 0, len(c.overlay))
	for k, v := range c.overlay {
		out = append(out, [2]int64{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// RestoreOverlayTable reinstates a previously exported cluster map.
func (c *COWImage) RestoreOverlayTable(table [][2]int64) {
	c.overlay = make(map[int64]int64, len(table))
	c.nextAlloc = 0
	for _, kv := range table {
		c.overlay[kv[0]] = kv[1]
		if end := kv[1] + cowClusterSize; end > c.nextAlloc {
			c.nextAlloc = end
		}
	}
	c.AllocatedClusters = len(table)
}

// coalesceExtents merges adjacent extents on the same backing file.
func coalesceExtents(in []Extent) []Extent {
	if len(in) <= 1 {
		return in
	}
	out := in[:1]
	for _, e := range in[1:] {
		last := &out[len(out)-1]
		if e.FileID == last.FileID && last.HostOff+last.Bytes == e.HostOff {
			last.Bytes += e.Bytes
			continue
		}
		out = append(out, e)
	}
	return out
}
