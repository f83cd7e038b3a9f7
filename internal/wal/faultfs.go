package wal

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// Fault-injection errors.
var (
	// ErrInjected is returned by an operation the fault plan chose to fail.
	ErrInjected = errors.New("wal: injected fault")
	// ErrCrashed is returned by every operation after the filesystem
	// "crashed" (power cut): nothing works again until SimulateCrash
	// resets the filesystem to its durable contents.
	ErrCrashed = errors.New("wal: filesystem crashed")
)

// FaultKind selects what happens at the chosen IO operation.
type FaultKind int

const (
	// FaultNone disables injection.
	FaultNone FaultKind = iota
	// FaultCrash power-cuts the filesystem at the operation: the op fails
	// with ErrCrashed, as does everything after it, and unsynced data is
	// lost (modulo the torn-tail policy) once SimulateCrash runs.
	FaultCrash
	// FaultErr fails the operation with ErrInjected without performing it;
	// the filesystem keeps working afterwards.
	FaultErr
	// FaultShortWrite applies only to writes: persists roughly half the
	// buffer, then fails with ErrInjected. For a sync it behaves like
	// FaultErr.
	FaultShortWrite
)

// FaultPlan schedules one fault. IO operations (every File.Write and every
// File.Sync, across all files) are numbered from 1 in execution order; the
// fault triggers at operation AtOp.
type FaultPlan struct {
	AtOp int
	Kind FaultKind
}

// FaultFS is an in-memory filesystem with a crash model, built for the
// fault-injection test harness. Every file tracks two byte ranges:
//
//   - durable: bytes that reached "stable storage" (covered by a Sync)
//   - volatile: bytes written but not yet synced
//
// SimulateCrash discards the volatile suffix of every file — except for a
// caller-chosen number of "torn" bytes, modeling a partial sector flush —
// and revives the filesystem in that recovered state. Metadata operations
// (Create, Remove, Rename, Truncate) are modeled as immediately durable,
// as on a journaling filesystem with an fsynced directory; the hazards
// this harness targets are torn and lost *data* writes.
//
// A FaultFS is safe for concurrent use.
type FaultFS struct {
	mu      sync.Mutex
	files   map[string]*faultFile
	ops     int
	plan    FaultPlan
	crashed bool

	// Writes counts File.Write calls, Syncs counts File.Sync calls; their
	// sum is the op counter the fault plan indexes. They keep counting in
	// the recovered filesystem so a sweep can size itself from a dry run.
	Writes int
	Syncs  int

	// SyncDelay makes every Sync take this long (slept WITHOUT holding the
	// filesystem lock, like a real disk: writes proceed during the fsync).
	// Group-commit tests use it to open the window in which concurrent
	// committers pile up behind one in-flight fsync.
	SyncDelay time.Duration

	// SyncHook, when set, runs at the start of every Sync, after SyncDelay
	// and likewise without the filesystem lock. A test can park a commit
	// inside its fsync by blocking in it; a non-nil return fails that
	// Sync, which then persists nothing and is not counted as an op.
	SyncHook func() error
}

type faultFile struct {
	data    []byte
	durable int // prefix of data covered by a Sync
}

// NewFaultFS returns an empty in-memory filesystem with no fault planned.
func NewFaultFS() *FaultFS {
	return &FaultFS{files: make(map[string]*faultFile)}
}

// SetPlan schedules the fault for the next run. The op counter is NOT
// reset; use OpCount to offset plans for a warmed filesystem.
func (fs *FaultFS) SetPlan(p FaultPlan) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.plan = p
}

// OpCount returns how many write+sync operations have executed so far.
func (fs *FaultFS) OpCount() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.ops
}

// Crashed reports whether the filesystem is in the crashed state.
func (fs *FaultFS) Crashed() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.crashed
}

// SimulateCrash models the machine losing power and coming back: every
// file keeps its durable prefix plus, when torn is non-nil, a
// torn(unsynced)-byte prefix of its unsynced suffix (a partially flushed
// tail). The filesystem is usable again afterwards; the fault plan is
// cleared and open handles from before the crash stay dead.
func (fs *FaultFS) SimulateCrash(torn func(unsynced int) int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, f := range fs.files {
		keep := f.durable
		if torn != nil {
			extra := torn(len(f.data) - f.durable)
			if extra < 0 {
				extra = 0
			}
			if keep+extra > len(f.data) {
				extra = len(f.data) - keep
			}
			keep += extra
		}
		f.data = f.data[:keep]
		f.durable = keep
	}
	fs.crashed = false
	fs.plan = FaultPlan{}
}

// step advances the op counter and applies the scheduled fault. Caller
// holds fs.mu. The second return is how much of a write to persist when
// the fault is a short write (-1 = all of it).
func (fs *FaultFS) step(isWrite bool, writeLen int) (error, int) {
	if fs.crashed {
		return ErrCrashed, 0
	}
	fs.ops++
	if isWrite {
		fs.Writes++
	} else {
		fs.Syncs++
	}
	if fs.plan.Kind == FaultNone || fs.ops != fs.plan.AtOp {
		return nil, -1
	}
	switch fs.plan.Kind {
	case FaultCrash:
		fs.crashed = true
		return ErrCrashed, 0
	case FaultShortWrite:
		if isWrite {
			return ErrInjected, writeLen / 2
		}
		return ErrInjected, 0
	default: // FaultErr
		return ErrInjected, 0
	}
}

// ---------------------------------------------------------------------------
// FS interface

func (fs *FaultFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, ErrCrashed
	}
	f := &faultFile{}
	fs.files[name] = f
	return &faultHandle{fs: fs, name: name, file: f}, nil
}

func (fs *FaultFS) Open(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, ErrCrashed
	}
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("wal: open %s: file does not exist", name)
	}
	// Readers iterate a private copy so concurrent appends to the same
	// file cannot shift their view.
	snap := make([]byte, len(f.data))
	copy(snap, f.data)
	return &faultHandle{fs: fs, name: name, file: f, rd: snap, reading: true}, nil
}

func (fs *FaultFS) List() ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, ErrCrashed
	}
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	return names, nil
}

func (fs *FaultFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return ErrCrashed
	}
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("wal: remove %s: file does not exist", name)
	}
	delete(fs.files, name)
	return nil
}

func (fs *FaultFS) Rename(oldname, newname string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return ErrCrashed
	}
	f, ok := fs.files[oldname]
	if !ok {
		return fmt.Errorf("wal: rename %s: file does not exist", oldname)
	}
	delete(fs.files, oldname)
	fs.files[newname] = f
	return nil
}

func (fs *FaultFS) Truncate(name string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return ErrCrashed
	}
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("wal: truncate %s: file does not exist", name)
	}
	if size < 0 || size > int64(len(f.data)) {
		return fmt.Errorf("wal: truncate %s: size %d out of range", name, size)
	}
	f.data = f.data[:size]
	if f.durable > int(size) {
		f.durable = int(size)
	}
	return nil
}

// faultHandle is one open file handle.
type faultHandle struct {
	fs      *FaultFS
	name    string
	file    *faultFile
	reading bool
	rd      []byte // read snapshot
	pos     int
	closed  bool
}

func (h *faultHandle) Read(p []byte) (int, error) {
	if !h.reading {
		return 0, fmt.Errorf("wal: %s not open for reading", h.name)
	}
	if h.closed {
		return 0, fmt.Errorf("wal: read on closed file %s", h.name)
	}
	if h.pos >= len(h.rd) {
		return 0, io.EOF
	}
	n := copy(p, h.rd[h.pos:])
	h.pos += n
	return n, nil
}

func (h *faultHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, fmt.Errorf("wal: write on closed file %s", h.name)
	}
	if h.reading {
		return 0, fmt.Errorf("wal: %s not open for writing", h.name)
	}
	err, persist := h.fs.step(true, len(p))
	// The handle may belong to a pre-crash generation of the file; writes
	// land only if the directory still maps the name to this file.
	if h.fs.files[h.name] != h.file {
		if err == nil {
			err = ErrCrashed
		}
		return 0, err
	}
	if err != nil {
		if persist > 0 {
			h.file.data = append(h.file.data, p[:persist]...)
			return persist, err
		}
		return 0, err
	}
	h.file.data = append(h.file.data, p...)
	return len(p), nil
}

func (h *faultHandle) Sync() error {
	if d := h.fs.SyncDelay; d > 0 {
		time.Sleep(d)
	}
	if hook := h.fs.SyncHook; hook != nil {
		if err := hook(); err != nil {
			return err
		}
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return fmt.Errorf("wal: sync on closed file %s", h.name)
	}
	err, _ := h.fs.step(false, 0)
	if h.fs.files[h.name] != h.file {
		if err == nil {
			err = ErrCrashed
		}
		return err
	}
	if err != nil {
		return err
	}
	h.file.durable = len(h.file.data)
	return nil
}

func (h *faultHandle) Close() error {
	h.closed = true
	return nil
}
