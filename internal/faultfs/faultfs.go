// Package faultfs is the failpoint layer under the persistence paths: a
// minimal filesystem interface (FS/File) with two implementations — OS,
// the passthrough the production binaries use, and Injector, a
// deterministic fault injector the crash-recovery tests drive.
//
// The injector speaks in failpoints: "fail the Nth write to files whose
// name has this suffix", "crash after byte B of the temp file", "make
// rename fail once". A crashed file keeps every byte written before the
// crash point and refuses everything after it, which is exactly what a
// power cut mid-append leaves on disk. Faults trigger at deterministic
// operation counts — never timers or randomness — so every crash test
// replays bit-identically (the determinism contract extends to the
// failure paths).
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strings"
	"sync"
)

// FS is the slice of filesystem the persistence paths need: create a temp
// file, read an existing one, atomically swap via rename, clean up, stat
// for the follower's cheap size poll.
type FS interface {
	// Create truncates or creates name for writing.
	Create(name string) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// OpenAppend opens name for appending, creating it when absent — the
	// segment-append path (WriteBinaryDelta onto a growing STB1 chain).
	OpenAppend(name string) (File, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// Stat reports file metadata (the follower polls size this way).
	Stat(name string) (fs.FileInfo, error)
	// Truncate cuts name to size — the torn-tail repair path (a crashed
	// segment append leaves a partial segment that must be cut back to the
	// last complete-segment boundary before the chain can grow again).
	Truncate(name string, size int64) error
}

// File is the subset of *os.File the persistence paths use.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Sync flushes the file to stable storage.
	Sync() error
}

// OS is the passthrough FS over the real filesystem.
type OS struct{}

// Create implements FS.
func (OS) Create(name string) (File, error) { return os.Create(name) }

// Open implements FS.
func (OS) Open(name string) (File, error) { return os.Open(name) }

// OpenAppend implements FS.
func (OS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

// Rename implements FS.
func (OS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// Stat implements FS.
func (OS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

// Truncate implements FS.
func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// WriteAtomic replaces path crash-safely: write fills path+".tmp", which
// is synced, closed and renamed over path, so a crash leaves the old file
// or the new one, never a mix. A failure before the rename removes the
// temp file; a failed rename keeps it, and the next call overwrites it.
func WriteAtomic(fsys FS, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.Rename(tmp, path)
}

// AppendOrRestore appends to the existing file path: write gets the file
// opened for appending, and when write or the close fails the file is cut
// back to its size before the call, so a failed append never leaves a
// half-written tail. The cut is best effort and nothing is synced: a
// caller that must survive a failed cut, or a crash, repairs on its own.
func AppendOrRestore(fsys FS, path string, write func(io.Writer) error) error {
	info, err := fsys.Stat(path)
	if err != nil {
		return err
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Truncate(path, info.Size())
	}
	return err
}

// Op names one interceptable filesystem operation.
type Op string

// The interceptable operations. OpWrite and OpSync fire per call on files
// whose open matched the failpoint's suffix.
const (
	OpCreate   Op = "create"
	OpOpen     Op = "open"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpStat     Op = "stat"
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpTruncate Op = "truncate"
)

// ErrInjected is the sentinel wrapped by every injected failure.
var ErrInjected = errors.New("faultfs: injected fault")

// ErrCrashed is returned by operations on a file after its crash point:
// the process is "dead" as far as this file handle is concerned.
var ErrCrashed = fmt.Errorf("%w: file crashed", ErrInjected)

// Failpoint is one armed fault. The zero CountDown fires on the first
// matching operation; CountDown = n skips n matches first. A failpoint
// fires exactly once unless Persistent is set.
type Failpoint struct {
	// Op selects the operation to intercept.
	Op Op
	// PathSuffix restricts the failpoint to paths with this suffix
	// (empty matches every path). Matching is on the name passed to the
	// FS call, so tests match on basenames or extensions.
	PathSuffix string
	// CountDown is the number of matching operations to let through
	// before firing.
	CountDown int
	// Persistent keeps the failpoint armed after it fires.
	Persistent bool
	// Crash turns an OpWrite failpoint into a crash point: the first
	// CrashAtByte bytes of the matched file's lifetime writes are kept
	// (a short write lands the partial prefix), then the file is dead —
	// every later write/sync fails with ErrCrashed, only Close works.
	// Without Crash, an OpWrite failpoint fails the whole call cleanly.
	Crash bool
	// CrashAtByte is the byte budget of a Crash failpoint; 0 crashes
	// before anything lands.
	CrashAtByte int64
}

// Injector wraps an inner FS and fails operations according to armed
// failpoints. Safe for concurrent use. Operations that no failpoint
// matches pass straight through.
type Injector struct {
	inner FS

	mu     sync.Mutex
	points []*Failpoint
	fired  int
}

// NewInjector returns an injector over inner with no failpoints armed.
func NewInjector(inner FS) *Injector {
	return &Injector{inner: inner}
}

// Arm adds one failpoint. Points are matched in arming order.
func (in *Injector) Arm(fp Failpoint) {
	in.mu.Lock()
	defer in.mu.Unlock()
	cp := fp
	in.points = append(in.points, &cp)
}

// Reset disarms every failpoint and zeroes the fired counter.
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.points = nil
	in.fired = 0
}

// Fired returns the number of faults injected since the last Reset.
func (in *Injector) Fired() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// match consumes at most one failpoint for (op, name); it returns the
// matched point with fire=true when the operation must fail.
func (in *Injector) match(op Op, name string) (fp Failpoint, fire bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, p := range in.points {
		if p.Op != op || !strings.HasSuffix(name, p.PathSuffix) {
			continue
		}
		if p.Op == OpWrite && p.Crash {
			continue // crash points fire through writeBudget, not here
		}
		if p.CountDown > 0 {
			p.CountDown--
			continue
		}
		in.fired++
		cp := *p
		if !p.Persistent {
			in.points = append(in.points[:i], in.points[i+1:]...)
		}
		return cp, true
	}
	return Failpoint{}, false
}

// writeBudget finds an armed crash-at-byte write failpoint for name
// without consuming it; ok=false means writes to name are unrestricted.
func (in *Injector) writeBudget(name string) (budget int64, ok bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, p := range in.points {
		if p.Op == OpWrite && p.Crash && strings.HasSuffix(name, p.PathSuffix) {
			return p.CrashAtByte, true
		}
	}
	return 0, false
}

// consumeCrash retires the crash-at-byte failpoint for name (called once
// the crash has happened, so later opens of the same path write freely).
func (in *Injector) consumeCrash(name string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, p := range in.points {
		if p.Op == OpWrite && p.Crash && strings.HasSuffix(name, p.PathSuffix) {
			if !p.Persistent {
				in.points = append(in.points[:i], in.points[i+1:]...)
			}
			in.fired++
			return
		}
	}
}

func injectedErr(op Op, name string) error {
	return fmt.Errorf("%w: %s %s", ErrInjected, op, name)
}

// Create implements FS.
func (in *Injector) Create(name string) (File, error) {
	if _, fire := in.match(OpCreate, name); fire {
		return nil, injectedErr(OpCreate, name)
	}
	f, err := in.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{in: in, name: name, f: f}, nil
}

// Open implements FS.
func (in *Injector) Open(name string) (File, error) {
	if _, fire := in.match(OpOpen, name); fire {
		return nil, injectedErr(OpOpen, name)
	}
	f, err := in.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{in: in, name: name, f: f}, nil
}

// OpenAppend implements FS.
func (in *Injector) OpenAppend(name string) (File, error) {
	if _, fire := in.match(OpOpen, name); fire {
		return nil, injectedErr(OpOpen, name)
	}
	f, err := in.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{in: in, name: name, f: f}, nil
}

// Rename implements FS.
func (in *Injector) Rename(oldname, newname string) error {
	if _, fire := in.match(OpRename, oldname); fire {
		return injectedErr(OpRename, oldname)
	}
	return in.inner.Rename(oldname, newname)
}

// Remove implements FS.
func (in *Injector) Remove(name string) error {
	if _, fire := in.match(OpRemove, name); fire {
		return injectedErr(OpRemove, name)
	}
	return in.inner.Remove(name)
}

// Stat implements FS.
func (in *Injector) Stat(name string) (fs.FileInfo, error) {
	if _, fire := in.match(OpStat, name); fire {
		return nil, injectedErr(OpStat, name)
	}
	return in.inner.Stat(name)
}

// Truncate implements FS.
func (in *Injector) Truncate(name string, size int64) error {
	if _, fire := in.match(OpTruncate, name); fire {
		return injectedErr(OpTruncate, name)
	}
	return in.inner.Truncate(name, size)
}

// faultFile interposes the injector on a file's write path. written
// tracks lifetime bytes so crash-at-byte budgets are cumulative across
// writes, like a real torn append.
type faultFile struct {
	in      *Injector
	name    string
	f       File
	written int64
	crashed bool
}

func (ff *faultFile) Read(p []byte) (int, error) { return ff.f.Read(p) }

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) { return ff.f.Seek(offset, whence) }

func (ff *faultFile) Write(p []byte) (int, error) {
	if ff.crashed {
		return 0, ErrCrashed
	}
	if budget, ok := ff.in.writeBudget(ff.name); ok {
		if remaining := budget - ff.written; remaining < int64(len(p)) {
			// Crash point inside this write: persist the short prefix,
			// then die. The handle stays usable only for Close, exactly
			// like a process killed mid-write.
			if remaining < 0 {
				remaining = 0
			}
			n, _ := ff.f.Write(p[:remaining])
			ff.written += int64(n)
			ff.crashed = true
			ff.in.consumeCrash(ff.name)
			return n, fmt.Errorf("%w: write crashed at byte %d of %s", ErrInjected, budget, ff.name)
		}
	}
	if _, fire := ff.in.match(OpWrite, ff.name); fire {
		return 0, injectedErr(OpWrite, ff.name)
	}
	n, err := ff.f.Write(p)
	ff.written += int64(n)
	return n, err
}

func (ff *faultFile) Sync() error {
	if ff.crashed {
		return ErrCrashed
	}
	if _, fire := ff.in.match(OpSync, ff.name); fire {
		return injectedErr(OpSync, ff.name)
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error {
	// Close always releases the descriptor: a crashed process's kernel
	// closes its files, keeping whatever bytes made it to the page cache.
	return ff.f.Close()
}
