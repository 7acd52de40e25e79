package guestos

import (
	"fmt"
	"sort"

	"vmdg/internal/sim"
)

// Filesystem cost constants, in kernel-class operations.
const (
	// pageCopyOps is the cost of moving one 4 KB page between user space
	// and the page cache (memcpy plus radix-tree lookup and locking).
	pageCopyOps = 900
	// pageFaultOps covers allocating and inserting a fresh cache page.
	pageFaultOps = 500
	// PageSize is the guest page/block granularity.
	PageSize = 4096
	// writebackHighWater triggers asynchronous writeback of a file's dirty
	// pages (a coarse stand-in for pdflush thresholds).
	writebackHighWater = 8 << 20
)

// page tracks residency of one file page in the cache.
type page struct {
	// lruSeq implements an exact LRU without a linked list: larger = more
	// recently touched. touch numbers cached pages from 1, so 0 means the
	// page is not cached.
	lruSeq uint64
	dirty  bool
}

// cached reports whether the page is resident.
func (p *page) cached() bool { return p.lruSeq != 0 }

type gfile struct {
	name    string
	size    int64
	diskOff int64 // contiguous on-device extent start
	// pages is indexed by page number and grows to the file's highest
	// cached page, so a write allocates no page and writeback walks it in
	// order: 8192 entries (128 KB) for iobench's largest file (32 MB), 2
	// for the BOINC checkpoint.
	pages []page
	dirty int64 // count of dirty entries in pages
}

// cachedPage returns page idx's entry if it is cached, or nil.
func (f *gfile) cachedPage(idx int64) *page {
	if idx < int64(len(f.pages)) && f.pages[idx].cached() {
		return &f.pages[idx]
	}
	return nil
}

// FileSystem is a page-cached filesystem over a BlockDevice. Files occupy
// contiguous device extents (allocation is bump-pointer), which makes the
// sequential-vs-random distinction of the underlying disk meaningful.
type FileSystem struct {
	kernel *Kernel
	dev    BlockDevice

	capacity   int64 // max cached bytes
	cached     int64
	files      map[string]*gfile
	nextExtent int64
	lruClock   uint64

	runs []extent   // the runs of pages a read misses or a flush writes, reused by each
	free []*diskReq // recycled device requests

	// Stats
	Hits, Misses   uint64
	EvictedPages   uint64
	WritebackPages uint64
}

func newFileSystem(k *Kernel, dev BlockDevice, capacity int64) *FileSystem {
	return &FileSystem{
		kernel:   k,
		dev:      dev,
		capacity: capacity,
		files:    make(map[string]*gfile),
	}
}

// lookup returns the file, creating it on first reference (the guest
// benchmarks create files by writing them).
func (fs *FileSystem) lookup(name string) *gfile {
	f, ok := fs.files[name]
	if !ok {
		f = &gfile{name: name, diskOff: fs.nextExtent}
		// Reserve a generous extent so growing files stay contiguous.
		fs.nextExtent += 64 << 20
		fs.files[name] = f
	}
	return f
}

// FileSize reports the current size of a file (0 if absent).
func (fs *FileSystem) FileSize(name string) int64 {
	if f, ok := fs.files[name]; ok {
		return f.size
	}
	return 0
}

// CachedBytes reports current page-cache occupancy.
func (fs *FileSystem) CachedBytes() int64 { return fs.cached }

func (fs *FileSystem) touch(p *page) {
	fs.lruClock++
	p.lruSeq = fs.lruClock
}

// insert adds a page to the cache, evicting clean LRU pages if needed.
func (fs *FileSystem) insert(f *gfile, idx int64, dirty bool) {
	if p := f.cachedPage(idx); p != nil {
		if dirty && !p.dirty {
			p.dirty = true
			f.dirty++
		}
		fs.touch(p)
		return
	}
	fs.evictFor(PageSize)
	if n := idx + 1; n > int64(len(f.pages)) {
		f.pages = append(f.pages, make([]page, n-int64(len(f.pages)))...)
	}
	p := &f.pages[idx]
	p.dirty = dirty
	if dirty {
		f.dirty++
	}
	fs.cached += PageSize
	fs.touch(p)
	fs.kernel.charge(pageFaultOps)
}

// evictFor makes room for need bytes by discarding the least recently used
// clean pages. Dirty pages are skipped (writeback reclaims them); if the
// cache is entirely dirty the insert proceeds over capacity, as Linux
// does under writeback pressure.
func (fs *FileSystem) evictFor(need int64) {
	if fs.cached+need <= fs.capacity {
		return
	}
	var clean []*page
	for _, f := range fs.files {
		for i := range f.pages {
			if p := &f.pages[i]; p.cached() && !p.dirty {
				clean = append(clean, p)
			}
		}
	}
	// lruSeq keys are unique, so the eviction order does not depend on
	// the order the files map yields its files in.
	sort.Slice(clean, func(i, j int) bool { return clean[i].lruSeq < clean[j].lruSeq })
	for _, p := range clean {
		if fs.cached+need <= fs.capacity {
			return
		}
		p.lruSeq = 0
		fs.cached -= PageSize
		fs.EvictedPages++
	}
}

// pageRange returns the page indexes covering [off, off+n).
func pageRange(off, n int64) (first, last int64) {
	return off / PageSize, (off + n - 1) / PageSize
}

// read services a guest read. It returns true if the thread must block on
// device I/O (the FS will make it runnable again upon completion).
func (fs *FileSystem) read(g *GThread, name string, off, n int64) (blocked bool) {
	if n <= 0 {
		return false
	}
	f := fs.lookup(name)
	if off+n > f.size {
		// Reading past EOF extends nothing: short-read the available part.
		n = f.size - off
		if n <= 0 {
			return false
		}
	}
	first, last := pageRange(off, n)
	fs.kernel.charge(float64(last-first+1) * pageCopyOps)

	// Collect contiguous runs of missing pages.
	fs.runs = fs.runs[:0]
	for idx := first; idx <= last; idx++ {
		if p := f.cachedPage(idx); p != nil {
			fs.touch(p)
			fs.Hits++
			continue
		}
		fs.Misses++
		fs.addRun(idx)
	}
	if len(fs.runs) == 0 {
		return false
	}
	if fs.dev == nil {
		panic(fmt.Sprintf("guestos: read miss on %q with no block device", name))
	}
	fs.submit(f, g, false)
	return true
}

// extent is a run of page indexes, both ends included.
type extent struct{ fromPage, toPage int64 }

// addRun adds page idx to fs.runs: it extends the last run if idx
// follows it, and starts a new run otherwise.
func (fs *FileSystem) addRun(idx int64) {
	if n := len(fs.runs); n > 0 && fs.runs[n-1].toPage == idx-1 {
		fs.runs[n-1].toPage = idx
	} else {
		fs.runs = append(fs.runs, extent{idx, idx})
	}
}

// submit sends each run in fs.runs to the device as a request: it reads
// the run into f's cache, or writes it from there. g, if not nil, is the
// thread that blocks until its last request lands.
func (fs *FileSystem) submit(f *gfile, g *GThread, write bool) {
	if g != nil {
		g.pending = len(fs.runs)
	}
	for _, e := range fs.runs {
		var r *diskReq
		if n := len(fs.free); n > 0 {
			r = fs.free[n-1]
			fs.free = fs.free[:n-1]
		} else {
			r = &diskReq{fs: fs}
		}
		r.f, r.g, r.write, r.extent = f, g, write, e
		pages := e.toPage - e.fromPage + 1
		if write {
			fs.WritebackPages += uint64(pages)
		}
		fs.dev.Submit(f.diskOff+e.fromPage*PageSize, pages*PageSize, write, r)
	}
}

// diskReq is one run of pages on its way between the cache and the
// device: a read miss's fetch, or an fsync's or writeback's write.
// Requests are pooled per FileSystem and are the device's sim.Caller, so
// guest disk I/O allocates nothing at steady state.
type diskReq struct {
	fs    *FileSystem
	f     *gfile
	g     *GThread // the thread blocked until its last request lands, or nil
	write bool
	extent
}

// Fire implements sim.Caller: the run landed. A read caches its pages.
// A blocked thread wakes, with one interrupt, once its last request has
// landed; writeback raises one interrupt per request. The request
// returns to the pool first, because the wake may run the thread into
// its next request.
func (r *diskReq) Fire(sim.Time) {
	fs, f, g, write, e := r.fs, r.f, r.g, r.write, r.extent
	fs.free = append(fs.free, r)
	if !write {
		for idx := e.fromPage; idx <= e.toPage; idx++ {
			fs.insert(f, idx, false)
		}
	}
	if g != nil {
		g.pending--
		if g.pending > 0 {
			return
		}
		fs.kernel.makeRunnable(g)
	}
	fs.kernel.interruptEntry()
}

// write services a guest write: data lands in the cache and is flushed
// asynchronously (or by fsync). It returns true if the thread must block —
// only when the write triggers synchronous writeback throttling.
func (fs *FileSystem) write(g *GThread, name string, off, n int64) (blocked bool) {
	if n <= 0 {
		return false
	}
	f := fs.lookup(name)
	first, last := pageRange(off, n)
	fs.kernel.charge(float64(last-first+1) * pageCopyOps)
	for idx := first; idx <= last; idx++ {
		fs.insert(f, idx, true)
	}
	if off+n > f.size {
		f.size = off + n
	}
	if fs.dirtyBytes(f) >= writebackHighWater {
		fs.flushAsync(f)
	}
	return false
}

// dirtyBytes reports a file's dirty page bytes. Only insert dirties a
// page and only dirtyExtents cleans one (eviction and DropCaches drop
// clean pages alone), so the two keep f.dirty exact.
func (fs *FileSystem) dirtyBytes(f *gfile) int64 { return f.dirty * PageSize }

// dirtyExtents collects a file's dirty pages into fs.runs as ascending
// contiguous runs and marks them clean (the caller is committing them to
// the device).
func (fs *FileSystem) dirtyExtents(f *gfile) {
	fs.runs = fs.runs[:0]
	for i := range f.pages {
		p := &f.pages[i]
		if !p.dirty {
			continue
		}
		p.dirty = false
		f.dirty--
		fs.addRun(int64(i))
	}
}

// flushAsync issues writeback without blocking anyone.
func (fs *FileSystem) flushAsync(f *gfile) {
	if fs.dev == nil {
		return
	}
	fs.dirtyExtents(f)
	fs.submit(f, nil, true)
}

// fsync flushes a file's dirty pages and blocks the thread until the
// device acknowledges them all.
func (fs *FileSystem) fsync(g *GThread, name string) (blocked bool) {
	f, ok := fs.files[name]
	if !ok || fs.dev == nil {
		return false
	}
	fs.dirtyExtents(f)
	if len(fs.runs) == 0 {
		return false
	}
	fs.submit(f, g, true)
	return true
}

// DropCaches discards all clean cached pages, the guest-side equivalent of
// `echo 3 > /proc/sys/vm/drop_caches` that I/O benchmarks use to defeat
// caching between the write and read phases. Dirty pages are retained; call
// fsync first for a full drop.
func (fs *FileSystem) DropCaches() {
	for _, f := range fs.files {
		for i := range f.pages {
			if p := &f.pages[i]; p.cached() && !p.dirty {
				p.lruSeq = 0
				fs.cached -= PageSize
			}
		}
	}
}

// DirtyBytes reports the total dirty page bytes across all files.
func (fs *FileSystem) DirtyBytes() int64 {
	var d int64
	for _, f := range fs.files {
		d += fs.dirtyBytes(f)
	}
	return d
}
