// Stub of the lock surface of genmapper/internal/wal.
// Documented order: WAL.syncMu < WAL.mu.
package wal

import "sync"

type File interface {
	Sync() error
}

type WAL struct {
	syncMu sync.Mutex
	mu     sync.Mutex
	f      File
}

func syncThenMu(w *WAL) {
	w.syncMu.Lock()
	w.mu.Lock()
	w.mu.Unlock()
	w.syncMu.Unlock()
}

func muThenSync(w *WAL) {
	w.mu.Lock()
	w.syncMu.Lock() // want `lock order violation: wal\.syncMu acquired while holding wal\.mu`
	w.syncMu.Unlock()
	w.mu.Unlock()
}

func advance(w *WAL) {
	w.mu.Lock()
	w.mu.Unlock()
	// Releasing mu before taking syncMu keeps the order legal (the real
	// AdvanceTo does exactly this dance).
	w.syncMu.Lock()
	w.syncMu.Unlock()
}

func syncUnderWalLock(w *WAL) error {
	// wal-domain locks may be held across fsync — that serialization is the
	// point of syncMu; only db.writer must not be.
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.f.Sync()
}

func bootstrapInversion(w *WAL) {
	w.mu.Lock()
	//gmlint:ignore lockorder startup path runs before any other goroutine exists
	w.syncMu.Lock()
	w.syncMu.Unlock()
	w.mu.Unlock()
}
