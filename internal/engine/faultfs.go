package engine

import (
	"errors"
	"io"
	"sync"
)

// This file is the engine's fault-injection seam. Every durable write
// the persistence layer performs — manifest journal headers, record
// appends, syncs, renames, shard payload files — consults a *Faults
// plan before touching the OS. Production runs carry a nil plan, which
// reduces to a nil check; tests attach a plan to fail the Nth write,
// tear the final record, or simulate a full disk, then assert that the
// resume path recovers to byte-identical output.

// Op classifies one persistence operation for fault matching.
type Op uint8

const (
	// OpCreate: creating a temp or journal file.
	OpCreate Op = iota
	// OpWrite: writing payload bytes (the only op a torn-write plan
	// can truncate).
	OpWrite
	// OpSync: fsync of a journal or temp file.
	OpSync
	// OpRename: the atomic rename publishing a file.
	OpRename
)

func (o Op) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpRename:
		return "rename"
	}
	return "unknown"
}

// ErrInjected is the default error a firing fault returns.
var ErrInjected = errors.New("injected fault")

// Faults is a programmable fault plan for the persistence layer. The
// zero value never fires; a nil *Faults is inert. Plans are safe for
// concurrent use (the pool's workers and the collector both persist).
type Faults struct {
	// FailAt fires the fault on the FailAt-th matched operation,
	// 1-based. Zero never fires.
	FailAt int
	// Match limits which operations count toward FailAt; nil matches
	// every operation.
	Match func(op Op, path string) bool
	// Err is what the failing operation returns (ErrInjected when nil).
	// Wrap syscall.ENOSPC here to simulate a full disk.
	Err error
	// TornBytes, for a failing OpWrite, writes this many bytes of the
	// record before failing — the torn final record an interrupted
	// write(2) leaves behind.
	TornBytes int
	// Crash makes every operation after the firing one fail too, as if
	// the process had died mid-run: no later sync, rename, or append
	// can rescue the file.
	Crash bool

	mu      sync.Mutex
	seen    int
	crashed bool
}

// check consults the plan before an operation. It returns how many
// payload bytes to write before failing (-1 = all; meaningful for
// OpWrite only) and the error the operation must return; a nil error
// means proceed normally.
func (f *Faults) check(op Op, path string) (torn int, err error) {
	if f == nil {
		return -1, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return 0, f.failErr()
	}
	if f.Match != nil && !f.Match(op, path) {
		return -1, nil
	}
	f.seen++
	if f.FailAt == 0 || f.seen != f.FailAt {
		return -1, nil
	}
	if f.Crash {
		f.crashed = true
	}
	if op == OpWrite {
		return f.TornBytes, f.failErr()
	}
	return 0, f.failErr()
}

func (f *Faults) failErr() error {
	if f.Err != nil {
		return f.Err
	}
	return ErrInjected
}

// faultyWrite writes b through the plan: a firing fault may first write
// a torn prefix of the record, exactly as a crash between write(2)
// calls would leave on disk.
func faultyWrite(f *Faults, w io.Writer, path string, b []byte) error {
	torn, ferr := f.check(OpWrite, path)
	if ferr == nil {
		_, err := w.Write(b)
		return err
	}
	if torn > 0 {
		if torn > len(b) {
			torn = len(b)
		}
		w.Write(b[:torn]) // the torn prefix is the point; its error is moot
	}
	return ferr
}
