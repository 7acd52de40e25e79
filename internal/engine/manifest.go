package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// A sweep manifest is the durable record of one run's fold: which tasks
// the run comprises (in canonical fold order), how far the fold got,
// and the digest of every payload it absorbed. The shard cache already
// persists the payloads; the manifest is what turns those payloads back
// into a resumable run — a re-run of the same spec verifies the
// manifest's prefix against the cache and replays it instead of
// re-simulating, picking up at the first missing or unverifiable shard.
//
// The file is a versioned, append-only journal: a sealed header line,
// one sealed record line per folded task, and a sealed done line once
// every task folded. Every line carries a CRC-32 of its payload, so a
// reader accepts exactly the longest intact prefix — a torn or
// corrupted tail (a crash mid-append, a lost page) degrades to the last
// durable record instead of poisoning the file. The header and any
// resumed record prefix are written to a temp file, synced, and renamed
// into place, so a crash during journal (re)creation leaves either the
// old journal or the new one, never a hybrid; appends are single
// write(2) calls of whole sealed lines, synced every syncEvery records
// and at close.

// manifestVersion is the journal format version. Bump it when the line
// grammar or header fields change; old journals then fail Load with
// ErrManifestVersion and the run starts a fresh manifest.
const manifestVersion = 1

// manifestExt names manifest files inside the store directory.
const manifestExt = ".manifest"

// syncEvery is the journal's fsync cadence: one fsync per this many
// appended records (plus one at close). A process crash loses nothing
// that write(2) accepted; only an OS or power failure can lose the
// un-synced tail, and then resume just re-simulates those shards.
const syncEvery = 64

// ErrManifestVersion reports a journal written by an incompatible
// format version.
var ErrManifestVersion = errors.New("engine: unsupported manifest version")

// ErrManifestBusy reports that another run in this process holds the
// identity's journal open right now. Identical identities fold the
// identical task list, so the concurrent run's journal records exactly
// what this run's would; the runner reacts by proceeding un-journaled
// rather than racing two writers over one file.
var ErrManifestBusy = errors.New("engine: manifest journal busy (identical run in flight)")

// LockStaleAfter is how long an untouched run lock keeps counting as an
// active run. An open journal touches its lock on every sync (at most
// every syncEvery records), so a lock this stale means the run died
// without closing — typically a SIGKILL — and maintenance may proceed
// over it; the next resume re-acquires cleanly.
const LockStaleAfter = time.Hour

// ManifestRecord is one folded task: its index in the run's canonical
// task order, the payload's cache-file stem (hex SHA-256 of the cache
// key — the same name the payload cache stores it under, so manifests
// reconcile against payload files by name alone), and the hex SHA-256
// of the payload bytes the fold absorbed.
type ManifestRecord struct {
	Index   int
	KeyHash string
	Digest  string
}

// Manifest is a loaded journal: the run identity, its task count, and
// the valid record prefix.
type Manifest struct {
	Identity string
	Tasks    int
	Cache    string // cacheVersion that wrote the journal
	Records  []ManifestRecord
	// Complete marks a run whose every task folded (the done line).
	Complete bool
	// Torn marks a journal whose tail was damaged; Records holds the
	// intact prefix, which is exactly the resume point.
	Torn bool
}

// Cursor is the fold progress the journal vouches for.
func (m *Manifest) Cursor() int { return len(m.Records) }

// ManifestInfo summarizes one stored manifest for listings.
type ManifestInfo struct {
	Identity string
	Tasks    int
	Cursor   int
	Complete bool
	Torn     bool
	Bytes    int64
	Mod      time.Time
}

// ManifestStore keeps the journals for one cache directory, one file
// per run identity.
type ManifestStore struct {
	dir    string
	faults *Faults

	// open tracks the identities with a live Journal in this process,
	// so concurrent identical runs (the serve daemon's tenants) never
	// append to one journal file from two writers: Start refuses the
	// second opener with ErrManifestBusy.
	mu   sync.Mutex
	open map[string]bool
}

// NewManifestStore opens a store rooted at dir. The directory is
// created on first write, so read-only use never dirties the cache.
func NewManifestStore(dir string) *ManifestStore { return &ManifestStore{dir: dir} }

// tryOpen claims in-process ownership of identity's journal.
func (s *ManifestStore) tryOpen(identity string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.open[identity] {
		return false
	}
	if s.open == nil {
		s.open = map[string]bool{}
	}
	s.open[identity] = true
	return true
}

// closeOpen releases in-process ownership (journal closed or Start
// aborted).
func (s *ManifestStore) closeOpen(identity string) {
	s.mu.Lock()
	delete(s.open, identity)
	s.mu.Unlock()
}

// Dir returns the store directory.
func (s *ManifestStore) Dir() string { return s.dir }

// SetFaults attaches a fault-injection plan (tests only).
func (s *ManifestStore) SetFaults(f *Faults) { s.faults = f }

func (s *ManifestStore) path(identity string) string {
	return filepath.Join(s.dir, identity+manifestExt)
}

// Run locks mark journals that belong to a live run, so cache
// maintenance (Prune, Clear, Reconcile) can detect and skip them
// instead of racing the run's appends and payload reads. A lock is one
// file per identity under the store's "locks" subdirectory, created by
// Start, freshened (mtime) by every journal sync, and removed by
// Finish and Close. Liveness is the file's mtime: older than
// LockStaleAfter means the owning process is gone (see LockStaleAfter).

func (s *ManifestStore) lockPath(identity string) string {
	return filepath.Join(s.dir, "locks", identity+".lock")
}

// acquireLock marks identity's run live. Lock trouble never fails a
// run — the lock is advisory, protecting the run from maintenance, not
// the other way around.
func (s *ManifestStore) acquireLock(identity string) {
	path := s.lockPath(identity)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	os.WriteFile(path, []byte(fmt.Sprintf("%d\n", os.Getpid())), 0o644)
}

// touchLock freshens the lock's mtime so a long run never goes stale.
func (s *ManifestStore) touchLock(identity string) {
	now := time.Now()
	os.Chtimes(s.lockPath(identity), now, now)
}

// releaseLock retires the lock when the journal closes.
func (s *ManifestStore) releaseLock(identity string) {
	os.Remove(s.lockPath(identity))
}

// ActiveRuns lists the identities whose run locks are fresh — runs a
// maintenance pass must not disturb. Read-only: stale locks are
// reported by omission here and cleaned up by Reconcile.
func (s *ManifestStore) ActiveRuns() ([]string, error) {
	dirents, err := os.ReadDir(filepath.Join(s.dir, "locks"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("engine: manifest locks: %w", err)
	}
	cutoff := time.Now().Add(-LockStaleAfter)
	var out []string
	for _, de := range dirents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".lock") {
			continue
		}
		info, err := de.Info()
		if err != nil || info.ModTime().Before(cutoff) {
			continue
		}
		out = append(out, strings.TrimSuffix(de.Name(), ".lock"))
	}
	sort.Strings(out)
	return out, nil
}

// manifestIdentity names a run: the digest of its ordered task-key
// hashes. Two runs resume each other exactly when they expand to the
// same tasks in the same order — same experiments, parameters, seed,
// cache version, and build (the cache key embeds all of these).
func manifestIdentity(keyHashes []string) string {
	h := sha256.New()
	for _, kh := range keyHashes {
		h.Write([]byte(kh))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// payloadDigest is the manifest's payload fingerprint.
func payloadDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// sealLine frames one journal line: the payload text, then its CRC-32
// in fixed-width hex. The fixed width lets openLine reject truncated
// checksums by length alone.
func sealLine(payload string) string {
	return fmt.Sprintf("%s #%08x\n", payload, crc32.ChecksumIEEE([]byte(payload)))
}

// openLine reverses sealLine; ok is false for torn or corrupted lines.
func openLine(line string) (payload string, ok bool) {
	i := strings.LastIndex(line, " #")
	if i < 0 || len(line) != i+10 {
		return "", false
	}
	var crc uint32
	if _, err := fmt.Sscanf(line[i+2:], "%08x", &crc); err != nil {
		return "", false
	}
	payload = line[:i]
	return payload, crc32.ChecksumIEEE([]byte(payload)) == crc
}

// nextLine splits one '\n'-terminated line off data. An unterminated
// remainder is a torn tail: it is returned with ok=false.
func nextLine(data []byte) (line string, rest []byte, ok bool) {
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return string(data), nil, false
	}
	return string(data[:i]), data[i+1:], true
}

// Load reads the journal for identity. A missing journal is (nil, nil).
// An unusable one — wrong magic, unsupported version, malformed or
// mismatched header — is an error (the runner starts fresh either way,
// but tooling and tests want the distinction). A valid header followed
// by a damaged tail is NOT an error: the intact record prefix is the
// resume point the journal exists to keep.
func (s *ManifestStore) Load(identity string) (*Manifest, error) {
	data, err := os.ReadFile(s.path(identity))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return parseManifest(identity, data)
}

func parseManifest(identity string, data []byte) (*Manifest, error) {
	line, rest, ok := nextLine(data)
	if !ok {
		return nil, fmt.Errorf("engine: manifest %.12s: torn header", identity)
	}
	payload, ok := openLine(line)
	if !ok {
		return nil, fmt.Errorf("engine: manifest %.12s: corrupt header", identity)
	}
	var (
		ver, tasks int
		id, cache  string
	)
	if _, err := fmt.Sscanf(payload, "vmdg-manifest v%d id=%s tasks=%d cache=%s", &ver, &id, &tasks, &cache); err != nil {
		return nil, fmt.Errorf("engine: manifest %.12s: malformed header %q", identity, payload)
	}
	if ver != manifestVersion {
		return nil, fmt.Errorf("%w: v%d (this build reads v%d)", ErrManifestVersion, ver, manifestVersion)
	}
	if id != identity {
		return nil, fmt.Errorf("engine: manifest %.12s: header names %.12s", identity, id)
	}
	if tasks < 0 {
		return nil, fmt.Errorf("engine: manifest %.12s: negative task count %d", identity, tasks)
	}
	m := &Manifest{Identity: identity, Tasks: tasks, Cache: cache}
	for len(rest) > 0 {
		line, next, ok := nextLine(rest)
		if !ok {
			m.Torn = true
			return m, nil
		}
		rest = next
		payload, ok := openLine(line)
		if !ok {
			m.Torn = true
			return m, nil
		}
		switch {
		case strings.HasPrefix(payload, "fold "):
			var rec ManifestRecord
			if _, err := fmt.Sscanf(payload, "fold %d %s %s", &rec.Index, &rec.KeyHash, &rec.Digest); err != nil ||
				rec.Index != len(m.Records) || rec.Index >= tasks {
				m.Torn = true
				return m, nil
			}
			m.Records = append(m.Records, rec)
		case strings.HasPrefix(payload, "done "):
			var n int
			if _, err := fmt.Sscanf(payload, "done %d", &n); err == nil &&
				n == tasks && len(m.Records) == tasks {
				m.Complete = true
			}
			return m, nil
		default:
			m.Torn = true
			return m, nil
		}
	}
	return m, nil
}

// Journal is one run's open manifest: Start creates it, the runner's
// collector appends one record per folded task, and Finish (every task
// folded) or Close (crash-resumable) seals it.
type Journal struct {
	store    *ManifestStore
	f        *os.File
	path     string
	identity string
	tasks    int
	n        int // records in the file (kept prefix + appends)
	unsynced int
	closed   bool
}

// Start begins — or, on resume, atomically rewrites — the journal for
// one run: the header plus the verified record prefix a resume keeps go
// to a temp file, which is synced and renamed into place. A crash
// during Start leaves either the previous journal or the new one, never
// a hybrid. The returned Journal is open for appends at record
// len(keep).
func (s *ManifestStore) Start(identity string, tasks int, keep []ManifestRecord) (*Journal, error) {
	if !s.tryOpen(identity) {
		return nil, ErrManifestBusy
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		s.closeOpen(identity)
		return nil, fmt.Errorf("engine: manifest dir: %w", err)
	}
	dst := s.path(identity)
	if _, err := s.faults.check(OpCreate, dst); err != nil {
		s.closeOpen(identity)
		return nil, err
	}
	tmp, err := os.CreateTemp(s.dir, "journal-*")
	if err != nil {
		s.closeOpen(identity)
		return nil, fmt.Errorf("engine: manifest: %w", err)
	}
	j := &Journal{store: s, f: tmp, path: dst, identity: identity, tasks: tasks, n: len(keep)}
	abort := func(err error) (*Journal, error) {
		tmp.Close()
		os.Remove(tmp.Name())
		s.closeOpen(identity)
		return nil, err
	}
	var head bytes.Buffer
	head.WriteString(sealLine(fmt.Sprintf("vmdg-manifest v%d id=%s tasks=%d cache=%s",
		manifestVersion, identity, tasks, cacheVersion)))
	for i, rec := range keep {
		if rec.Index != i {
			return abort(fmt.Errorf("engine: manifest: kept record %d indexed %d", i, rec.Index))
		}
		head.WriteString(sealLine(fmt.Sprintf("fold %d %s %s", rec.Index, rec.KeyHash, rec.Digest)))
	}
	if err := faultyWrite(s.faults, tmp, dst, head.Bytes()); err != nil {
		return abort(err)
	}
	if err := j.sync(); err != nil {
		return abort(err)
	}
	if _, err := s.faults.check(OpRename, dst); err != nil {
		return abort(err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return abort(fmt.Errorf("engine: manifest: %w", err))
	}
	// The renamed fd stays valid for appends — no reopen window in
	// which a concurrent run could swap the file underneath us.
	s.acquireLock(identity)
	return j, nil
}

// Append journals one folded task. Records must arrive in task order
// with no gaps — the collector's fold order.
func (j *Journal) Append(index int, keyHash, digest string) error {
	if j.closed {
		return fmt.Errorf("engine: journal: append after close")
	}
	if index != j.n {
		return fmt.Errorf("engine: journal: record %d out of order (want %d)", index, j.n)
	}
	line := sealLine(fmt.Sprintf("fold %d %s %s", index, keyHash, digest))
	if err := faultyWrite(j.store.faults, j.f, j.path, []byte(line)); err != nil {
		return err
	}
	j.n++
	j.unsynced++
	if j.unsynced >= syncEvery {
		return j.sync()
	}
	return nil
}

func (j *Journal) sync() error {
	if _, err := j.store.faults.check(OpSync, j.path); err != nil {
		return err
	}
	j.unsynced = 0
	j.store.touchLock(j.identity)
	return j.f.Sync()
}

// Finish seals a completed run: the done line tells a later identical
// run the manifest is complete rather than resumable. The journal is
// closed either way.
func (j *Journal) Finish() error {
	if j.closed {
		return nil
	}
	if j.n != j.tasks {
		j.Close()
		return fmt.Errorf("engine: journal: finish with %d of %d records", j.n, j.tasks)
	}
	line := sealLine(fmt.Sprintf("done %d", j.tasks))
	err := faultyWrite(j.store.faults, j.f, j.path, []byte(line))
	if err == nil {
		err = j.sync()
	}
	j.closed = true
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.store.releaseLock(j.identity)
	j.store.closeOpen(j.identity)
	return err
}

// Close syncs and closes without marking complete — the journal stays
// resumable. A no-op after Finish or Close.
func (j *Journal) Close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	err := j.sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.store.releaseLock(j.identity)
	j.store.closeOpen(j.identity)
	return err
}

// List summarizes every loadable manifest in the store, sorted by
// identity for stable output. Unreadable or unparsable files are
// skipped here — Reconcile removes them.
func (s *ManifestStore) List() ([]ManifestInfo, error) {
	files, err := s.files()
	if err != nil {
		return nil, err
	}
	var out []ManifestInfo
	for _, f := range files {
		m, err := s.Load(f.identity)
		if err != nil || m == nil {
			continue
		}
		out = append(out, ManifestInfo{
			Identity: m.Identity,
			Tasks:    m.Tasks,
			Cursor:   m.Cursor(),
			Complete: m.Complete,
			Torn:     m.Torn,
			Bytes:    f.size,
			Mod:      f.mod,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Identity < out[j].Identity })
	return out, nil
}

// Reconcile reacts to payload eviction and age: a manifest can only
// vouch for folds whose payloads the cache still holds, so after a
// prune each journal is truncated at its first missing payload (the
// cursor a resume would land on anyway) and removed outright when
// nothing valid remains, when it has aged past maxAge, or when it is
// unparsable. has reports whether the payload file for a record's
// KeyHash survives; maxAge <= 0 disables the age cap.
//
// Journals whose run lock is fresh are skipped entirely — their run is
// live and appending, so truncating or removing them would race it.
// Stale lock files (a run that died without closing) are removed here.
func (s *ManifestStore) Reconcile(has func(keyHash string) bool, maxAge time.Duration) (removed int, freed int64, err error) {
	files, err := s.files()
	if err != nil {
		return 0, 0, err
	}
	active, err := s.ActiveRuns()
	if err != nil {
		return 0, 0, err
	}
	live := make(map[string]bool, len(active))
	for _, id := range active {
		live[id] = true
	}
	s.sweepStaleLocks(live)
	cutoff := time.Now().Add(-maxAge)
	for _, f := range files {
		if live[f.identity] {
			continue
		}
		if maxAge > 0 && f.mod.Before(cutoff) {
			if os.Remove(f.path) == nil {
				removed++
				freed += f.size
			}
			continue
		}
		m, lerr := s.Load(f.identity)
		if lerr != nil || m == nil {
			if os.Remove(f.path) == nil { // unusable: stranded by a format or identity change
				removed++
				freed += f.size
			}
			continue
		}
		valid := 0
		for _, rec := range m.Records {
			if !has(rec.KeyHash) {
				break
			}
			valid++
		}
		if valid == len(m.Records) {
			continue // every vouched-for payload survives; torn tails stay as-is
		}
		if valid == 0 {
			if os.Remove(f.path) == nil {
				removed++
				freed += f.size
			}
			continue
		}
		// Truncate to the verified prefix, atomically (Start's temp +
		// rename). The rewritten journal is incomplete by construction.
		j, serr := s.Start(m.Identity, m.Tasks, m.Records[:valid])
		if serr == nil {
			j.Close()
		}
	}
	return removed, freed, nil
}

// sweepStaleLocks removes lock files whose run is no longer in the
// live set — the leftovers of runs that died without closing.
func (s *ManifestStore) sweepStaleLocks(live map[string]bool) {
	dirents, err := os.ReadDir(filepath.Join(s.dir, "locks"))
	if err != nil {
		return
	}
	for _, de := range dirents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".lock") {
			continue
		}
		if id := strings.TrimSuffix(de.Name(), ".lock"); !live[id] {
			os.Remove(s.lockPath(id))
		}
	}
}

// Clear removes every manifest.
func (s *ManifestStore) Clear() (removed int, freed int64, err error) {
	files, err := s.files()
	if err != nil {
		return 0, 0, err
	}
	for _, f := range files {
		if os.Remove(f.path) == nil {
			removed++
			freed += f.size
		}
	}
	return removed, freed, nil
}

type manifestFile struct {
	identity string
	path     string
	size     int64
	mod      time.Time
}

// files lists the store's manifest files (a missing directory is an
// empty store; entries vanishing mid-scan are tolerated).
func (s *ManifestStore) files() ([]manifestFile, error) {
	dirents, err := os.ReadDir(s.dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("engine: manifest dir: %w", err)
	}
	var out []manifestFile
	for _, de := range dirents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), manifestExt) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		out = append(out, manifestFile{
			identity: strings.TrimSuffix(de.Name(), manifestExt),
			path:     filepath.Join(s.dir, de.Name()),
			size:     info.Size(),
			mod:      info.ModTime(),
		})
	}
	return out, nil
}
