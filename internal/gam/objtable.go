package gam

import (
	"sync"
	"sync/atomic"
)

// objectTable is Repo.Object's cache of committed rows, addressed by
// ObjectID: slot id%objChunkSlots of chunk id/objChunkSlots holds the row
// of object id, shared and never written after it is stored. gam's object
// IDs are dense AUTOINCREMENT values, so the chunks fill up and a hit is
// three atomic loads: no hashing, no lock and no allocation.
//
// The directory grows, and a chunk is created, under mu; both are rare.
// Every other access takes no lock. A slot is set once, by CAS from empty,
// so every reader of one table gets the same pointer for an ID. IDs
// outside the bound the installer passes are served uncached and grow
// nothing.
type objectTable struct {
	dir atomic.Pointer[[]atomic.Pointer[objectChunk]]
	mu  sync.Mutex
}

// objChunkSlots is the number of IDs a chunk holds. A chunk is pointerful
// and over 512 bytes, so its allocation carries an 8-byte header: 1023
// slots make it exactly the 8 KiB size class (1024 would round up to
// 9 472 bytes).
const objChunkSlots = 1023

type objectChunk [objChunkSlots]atomic.Pointer[Object]

func newObjectTable() *objectTable {
	t := new(objectTable)
	t.dir.Store(new([]atomic.Pointer[objectChunk]))
	return t
}

// load returns the row stored for id, or nil. A negative id wraps past
// every directory.
func (t *objectTable) load(id ObjectID) *Object {
	dir := *t.dir.Load()
	if ci := uint64(id) / objChunkSlots; ci < uint64(len(dir)) {
		if c := dir[ci].Load(); c != nil {
			return c[uint64(id)%objChunkSlots].Load()
		}
	}
	return nil
}

// install stores o as id's row unless one is stored already, and returns
// the stored row. bound limits the IDs the table holds to [0, bound): o is
// returned, and not stored, for an ID outside it whose chunk does not
// exist.
func (t *objectTable) install(id ObjectID, o *Object, bound int64) *Object {
	c := t.chunk(id, bound)
	if c == nil {
		return o
	}
	slot := &c[uint64(id)%objChunkSlots]
	if slot.CompareAndSwap(nil, o) {
		return o
	}
	return slot.Load()
}

// chunk returns the chunk that holds id, creating it (and growing the
// directory to reach it) when id is inside [0, limit); nil when it is not.
func (t *objectTable) chunk(id ObjectID, limit int64) *objectChunk {
	ci := uint64(id) / objChunkSlots
	if dir := *t.dir.Load(); ci < uint64(len(dir)) {
		if c := dir[ci].Load(); c != nil {
			return c
		}
	}
	if id < 0 || int64(id) >= limit {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	dir := *t.dir.Load()
	if ci >= uint64(len(dir)) {
		// Double, but never past the chunk that holds limit-1.
		n := min(max(2*uint64(len(dir)), ci+1), uint64(limit-1)/objChunkSlots+1)
		grown := make([]atomic.Pointer[objectChunk], n)
		for i := range dir {
			grown[i].Store(dir[i].Load())
		}
		t.dir.Store(&grown)
		dir = grown
	}
	c := dir[ci].Load()
	if c == nil {
		c = new(objectChunk)
		dir[ci].Store(c)
	}
	return c
}
