package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"sync"
)

// SyncPolicy controls when an appended record is forced to stable storage.
type SyncPolicy int

const (
	// SyncGroup fsyncs before acknowledging a commit, but one fsync covers
	// every record appended up to the moment it runs: concurrent committers
	// queue behind the in-flight fsync and are acknowledged together
	// (group commit). Durable, amortized.
	SyncGroup SyncPolicy = iota
	// SyncAlways issues one fsync per Durable call, with no sharing.
	SyncAlways
	// SyncOff never fsyncs; data is flushed to the OS but a machine crash
	// can lose the tail. Fastest, for bulk loads that can be re-run.
	SyncOff
)

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	default:
		return "group"
	}
}

// ParseSyncPolicy parses "always", "group" or "off".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return SyncAlways, nil
	case "group", "":
		return SyncGroup, nil
	case "off":
		return SyncOff, nil
	}
	return SyncGroup, fmt.Errorf("wal: unknown fsync policy %q (always, group, off)", s)
}

// Options configures a WAL.
type Options struct {
	// Sync is the fsync policy (default SyncGroup).
	Sync SyncPolicy
	// SegmentSize rotates to a new segment file once the active one
	// exceeds this many bytes (default 4 MiB).
	SegmentSize int64
	// StartLSN floors the LSN sequence: the first Append returns at least
	// StartLSN+1 even when the surviving segments hold no records (they
	// may legitimately hold OLDER ones not yet pruned). The database
	// passes the LSN of the checkpoint it recovered, so a log whose tail
	// was fully checkpointed away never restarts numbering from 1 — which
	// would name the new active segment out of order.
	StartLSN uint64
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 4 << 20
	}
	return o
}

// Segment file layout:
//
//	header:  magic "GMWAL1\n" (7 bytes) + 1 reserved byte
//	records: length u32 | crc u32 | lsn u64 | payload
//
// crc is IEEE CRC32 over lsn+payload. length is the payload length. A
// record that fails length sanity, CRC, or runs past EOF is torn; torn
// records are tolerated (and truncated away) only at the very tail of the
// newest segment — anywhere else they are corruption.
const (
	segMagic      = "GMWAL1\n\x00"
	frameHead     = 4 + 4 + 8
	maxRecordSize = 1 << 30
)

// segPrefix and segName format segment file names so lexicographic order
// is first-LSN order.
const segPrefix = "wal-"

func segName(firstLSN uint64) string { return fmt.Sprintf("%s%020d.seg", segPrefix, firstLSN) }

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	var lsn uint64
	_, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), ".seg"), "%d", &lsn)
	return lsn, err == nil
}

// ErrCorrupt reports a CRC/framing failure before the physical tail of the
// log — data loss that truncation must not paper over.
var ErrCorrupt = errors.New("wal: corrupt record before log tail")

// Stats is a snapshot of the WAL's counters.
type Stats struct {
	// Appends counts records appended in this process.
	Appends uint64 `json:"appends"`
	// Fsyncs counts fsync calls issued by Durable and rotation.
	Fsyncs uint64 `json:"fsyncs"`
	// GroupCommits counts Durable calls satisfied by somebody else's
	// fsync (the group-commit win: acknowledged without touching disk).
	GroupCommits uint64 `json:"group_commits"`
	// MaxGroupSize is the largest number of records one fsync covered.
	MaxGroupSize uint64 `json:"max_group_size"`
	// LastLSN is the highest LSN appended (or recovered).
	LastLSN uint64 `json:"last_lsn"`
	// DurableLSN is the highest LSN known to be on stable storage.
	DurableLSN uint64 `json:"durable_lsn"`
	// Segments is the number of live segment files.
	Segments int `json:"segments"`
	// TornTailTruncations counts torn record tails dropped during Open.
	TornTailTruncations uint64 `json:"torn_tail_truncations"`
	// SizeBytes is the total size of live segment files.
	SizeBytes int64 `json:"size_bytes"`
}

// WAL is an append-only, CRC-checked, segmented record log.
type WAL struct {
	fs   FS
	opts Options

	mu       sync.Mutex // guards the fields below
	segNames []string   // live segments, oldest first (includes active)
	segSizes []int64
	f        File          // active segment
	w        *bufio.Writer // buffers appends into f
	size     int64         // bytes written to active segment
	nextLSN  uint64
	failed   error // sticky: first IO error poisons the log

	syncMu     sync.Mutex // serializes durability rounds; guards durableLSN
	durableLSN uint64

	appends, fsyncs, groupCommits, maxGroup, tornTruncs uint64
}

// Open scans the segment files in fs, truncates a torn tail on the newest
// segment, determines the next LSN, and starts a fresh active segment.
// Records already in the log are not re-read here; use Replay.
func Open(fs FS, opts Options) (*WAL, error) {
	w := &WAL{fs: fs, opts: opts.withDefaults()}
	if err := w.scan(); err != nil {
		return nil, err
	}
	if w.nextLSN <= w.opts.StartLSN {
		w.nextLSN = w.opts.StartLSN + 1
	}
	w.durableLSN = w.nextLSN - 1
	if err := w.openSegment(); err != nil {
		return nil, err
	}
	return w, nil
}

// scan validates existing segments, truncating a torn tail on the last one
// and recording sizes, and positions nextLSN after the last valid record.
func (w *WAL) scan() error {
	names, err := sortedList(w.fs)
	if err != nil {
		return fmt.Errorf("wal: list segments: %w", err)
	}
	var segs []string
	for _, n := range names {
		if _, ok := parseSegName(n); ok {
			segs = append(segs, n)
		}
	}
	w.nextLSN = 1
	for i, name := range segs {
		last := i == len(segs)-1
		validSize, lastLSN, err := w.scanSegment(name, last)
		if err != nil {
			return err
		}
		if validSize == 0 {
			// The newest segment lost even its header. Drop it: left in
			// place, it would sit before the segment Open creates when that
			// one's name differs, where a short header is corruption.
			if err := w.fs.Remove(name); err != nil {
				return fmt.Errorf("wal: remove headerless segment %s: %w", name, err)
			}
			continue
		}
		if lastLSN >= w.nextLSN {
			w.nextLSN = lastLSN + 1
		}
		w.segNames = append(w.segNames, name)
		w.segSizes = append(w.segSizes, validSize)
	}
	return nil
}

// scanSegment walks one segment's records. When tolerateTail is set a
// torn record truncates the file at the last valid offset; otherwise it
// is ErrCorrupt.
func (w *WAL) scanSegment(name string, tolerateTail bool) (validSize int64, lastLSN uint64, err error) {
	f, err := w.fs.Open(name)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: open segment %s: %w", name, err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)

	truncate := func(at int64, why string) (int64, uint64, error) {
		if !tolerateTail {
			return 0, 0, fmt.Errorf("%w: segment %s at offset %d (%s)", ErrCorrupt, name, at, why)
		}
		if err := w.fs.Truncate(name, at); err != nil {
			return 0, 0, fmt.Errorf("wal: truncate torn tail of %s: %w", name, err)
		}
		w.tornTruncs++
		return at, lastLSN, nil
	}

	head := make([]byte, len(segMagic))
	if _, err := io.ReadFull(r, head); err != nil {
		// Missing/partial header: an empty just-created segment lost at
		// crash. Truncate to zero (tail) or corrupt (middle).
		return truncate(0, "short header")
	}
	if string(head) != segMagic {
		return 0, 0, fmt.Errorf("%w: segment %s has bad magic", ErrCorrupt, name)
	}
	off := int64(len(segMagic))
	var hdr [frameHead]byte
	for {
		_, err := io.ReadFull(r, hdr[:])
		if err == io.EOF {
			return off, lastLSN, nil // clean end
		}
		if err != nil {
			return truncate(off, "short frame header")
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		lsn := binary.LittleEndian.Uint64(hdr[8:16])
		if length > maxRecordSize {
			return truncate(off, "implausible record length")
		}
		payload, err := readPayload(r, length)
		if err != nil {
			return truncate(off, "short payload")
		}
		h := crc32.NewIEEE()
		h.Write(hdr[8:16])
		h.Write(payload)
		if h.Sum32() != crc {
			return truncate(off, "crc mismatch")
		}
		if lsn < w.nextLSN || (lastLSN != 0 && lsn != lastLSN+1) {
			return 0, 0, fmt.Errorf("%w: segment %s at offset %d (LSN %d out of sequence)", ErrCorrupt, name, off, lsn)
		}
		lastLSN = lsn
		off += frameHead + int64(length)
	}
}

// readPayload reads a frame's n-byte payload. Past the first MiB it
// allocates as the bytes arrive, so the garbage length of a torn frame
// cannot make recovery allocate up to maxRecordSize for a short file.
func readPayload(r io.Reader, n uint32) ([]byte, error) {
	const eager = 1 << 20
	if n <= eager {
		p := make([]byte, n)
		_, err := io.ReadFull(r, p)
		return p, err
	}
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf.Bytes(), nil
}

// openSegment starts a fresh active segment named after the next LSN.
// Recovery never appends to an old segment, so a pre-crash torn tail can
// never be overwritten by new records.
func (w *WAL) openSegment() error {
	name := segName(w.nextLSN)
	f, err := w.fs.Create(name)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if _, err := bw.WriteString(segMagic); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	w.f = f
	w.w = bw
	w.size = int64(len(segMagic))
	// A scan that ended on an empty segment leaves nextLSN where that
	// segment started; Create just truncated that same file, so replace
	// its entry instead of listing the name twice.
	if n := len(w.segNames); n > 0 && w.segNames[n-1] == name {
		w.segSizes[n-1] = w.size
		return nil
	}
	w.segNames = append(w.segNames, name)
	w.segSizes = append(w.segSizes, w.size)
	return nil
}

// Replay streams every valid record with fromLSN <= lsn to fn, in LSN
// order. Call it after Open and before the first Append.
func (w *WAL) Replay(fromLSN uint64, fn func(lsn uint64, payload []byte) error) error {
	w.mu.Lock()
	segs := make([]string, len(w.segNames))
	copy(segs, w.segNames)
	w.mu.Unlock()
	for _, name := range segs {
		if err := w.replaySegment(name, fromLSN, fn); err != nil {
			return err
		}
	}
	return nil
}

func (w *WAL) replaySegment(name string, fromLSN uint64, fn func(uint64, []byte) error) error {
	f, err := w.fs.Open(name)
	if err != nil {
		return fmt.Errorf("wal: open segment %s: %w", name, err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	head := make([]byte, len(segMagic))
	if _, err := io.ReadFull(r, head); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil // truncated-to-empty segment
		}
		return err
	}
	if string(head) != segMagic {
		return fmt.Errorf("%w: segment %s has bad magic", ErrCorrupt, name)
	}
	var hdr [frameHead]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("wal: replay %s: %w", name, err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		lsn := binary.LittleEndian.Uint64(hdr[8:16])
		if length > maxRecordSize {
			return fmt.Errorf("%w: segment %s (implausible length)", ErrCorrupt, name)
		}
		payload, err := readPayload(r, length)
		if err != nil {
			return fmt.Errorf("wal: replay %s: %w", name, err)
		}
		h := crc32.NewIEEE()
		h.Write(hdr[8:16])
		h.Write(payload)
		if h.Sum32() != crc {
			return fmt.Errorf("%w: segment %s (crc)", ErrCorrupt, name)
		}
		if lsn >= fromLSN {
			if err := fn(lsn, payload); err != nil {
				return err
			}
		}
	}
}

// AdvanceTo bumps the LSN counter so the next Append returns at least
// lsn+1. The database calls this after loading a checkpoint newer than
// the surviving log records.
func (w *WAL) AdvanceTo(lsn uint64) {
	// Lock order everywhere else is syncMu before mu (Durable, Rotate,
	// Stats); keep the two sections disjoint here rather than nesting
	// them the other way around.
	w.mu.Lock()
	if w.nextLSN <= lsn {
		w.nextLSN = lsn + 1
	}
	w.mu.Unlock()
	w.syncMu.Lock()
	if w.durableLSN < lsn {
		w.durableLSN = lsn
	}
	w.syncMu.Unlock()
}

// Append writes one record to the log buffer and assigns its LSN. The
// record is NOT durable until Durable(lsn) returns; the caller decides
// when (and whether) to wait. Appends are ordered: callers serialized by
// an external commit lock get log order == commit order.
func (w *WAL) Append(payload []byte) (uint64, error) {
	if len(payload) > maxRecordSize {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds limit", len(payload))
	}
	w.mu.Lock()
	if w.failed != nil {
		err := w.failed
		w.mu.Unlock()
		return 0, err
	}
	lsn := w.nextLSN
	var hdr [frameHead]byte
	binary.LittleEndian.PutUint64(hdr[8:16], lsn)
	h := crc32.NewIEEE()
	h.Write(hdr[8:16])
	h.Write(payload)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], h.Sum32())
	if _, err := w.w.Write(hdr[:]); err != nil {
		w.failed = fmt.Errorf("wal: append: %w", err)
		err = w.failed
		w.mu.Unlock()
		return 0, err
	}
	if _, err := w.w.Write(payload); err != nil {
		w.failed = fmt.Errorf("wal: append: %w", err)
		err = w.failed
		w.mu.Unlock()
		return 0, err
	}
	w.nextLSN++
	w.appends++
	w.size += frameHead + int64(len(payload))
	w.segSizes[len(w.segSizes)-1] = w.size
	needRotate := w.size >= w.opts.SegmentSize
	w.mu.Unlock()
	if needRotate {
		//gmlint:ignore errdrop rotation failure poisons the log via w.failed; the record was already appended, so the commit proceeds
		_ = w.Rotate()
	}
	return lsn, nil
}

// Durable blocks until the record with the given LSN is on stable storage
// (per the sync policy). Under SyncGroup, one fsync acknowledges every
// record appended before it ran: callers whose LSN an earlier round
// already covered return without touching the disk.
func (w *WAL) Durable(lsn uint64) error {
	if w.opts.Sync == SyncOff {
		return w.flush()
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.opts.Sync == SyncGroup && w.durableLSN >= lsn {
		w.groupCommitted()
		return nil
	}
	return w.syncLocked()
}

// groupCommitted counts a Durable call satisfied without an fsync. Caller
// holds syncMu.
func (w *WAL) groupCommitted() { w.groupCommits++ }

// syncLocked flushes the buffer and fsyncs the active segment, advancing
// durableLSN to everything appended before the flush. Caller holds syncMu.
func (w *WAL) syncLocked() error {
	w.mu.Lock()
	if w.failed != nil {
		err := w.failed
		w.mu.Unlock()
		return err
	}
	target := w.nextLSN - 1
	err := w.w.Flush()
	if err != nil {
		w.failed = fmt.Errorf("wal: flush: %w", err)
		err = w.failed
	}
	f := w.f
	w.mu.Unlock()
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		w.mu.Lock()
		w.failed = fmt.Errorf("wal: fsync: %w", err)
		err = w.failed
		w.mu.Unlock()
		return err
	}
	w.fsyncs++
	if target > w.durableLSN {
		if g := target - w.durableLSN; g > w.maxGroup {
			w.maxGroup = g
		}
		w.durableLSN = target
	}
	return nil
}

// flush pushes buffered bytes to the OS without fsync (SyncOff).
func (w *WAL) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return w.failed
	}
	if err := w.w.Flush(); err != nil {
		w.failed = fmt.Errorf("wal: flush: %w", err)
		return w.failed
	}
	return nil
}

// Rotate seals the active segment (flush + fsync + close) and starts a new
// one. Sealed segments are immutable and become prunable once a checkpoint
// covers them.
func (w *WAL) Rotate() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return w.failed
	}
	sealedLast := w.nextLSN - 1
	if err := w.w.Flush(); err != nil {
		w.failed = fmt.Errorf("wal: rotate flush: %w", err)
		return w.failed
	}
	if err := w.f.Sync(); err != nil {
		w.failed = fmt.Errorf("wal: rotate fsync: %w", err)
		return w.failed
	}
	w.fsyncs++
	if sealedLast > w.durableLSN {
		w.durableLSN = sealedLast
	}
	if err := w.f.Close(); err != nil {
		// The segment is already flushed and fsynced, but a close failure
		// still signals an unhealthy FD: poison the log like every other
		// rotate-path failure rather than writing on through it.
		w.failed = fmt.Errorf("wal: rotate close: %w", err)
		return w.failed
	}
	if err := w.openSegment(); err != nil {
		w.failed = err
		return err
	}
	return nil
}

// Prune removes sealed segments whose every record has LSN <= uptoLSN
// (because a checkpoint now covers them). The active segment is never
// removed. A segment's records are bounded by the first LSN of the NEXT
// segment, so segment i is prunable iff firstLSN(i+1) <= uptoLSN+1.
func (w *WAL) Prune(uptoLSN uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, name := range w.segNames {
		prunable := false
		if i+1 < len(w.segNames) {
			if next, ok := parseSegName(w.segNames[i+1]); ok && next <= uptoLSN+1 {
				prunable = true
			}
		}
		if !prunable {
			w.segNames = append(w.segNames[:0], w.segNames[i:]...)
			w.segSizes = append(w.segSizes[:0], w.segSizes[i:]...)
			return nil
		}
		if err := w.fs.Remove(name); err != nil {
			return fmt.Errorf("wal: prune %s: %w", name, err)
		}
	}
	return nil
}

// LastLSN returns the highest LSN assigned so far (0 when empty).
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN - 1
}

// TornTruncations returns how many torn tails Open dropped.
func (w *WAL) TornTruncations() uint64 { return w.tornTruncs }

// Stats returns a snapshot of the log's counters.
func (w *WAL) Stats() Stats {
	w.syncMu.Lock()
	durable := w.durableLSN
	groups := w.groupCommits
	maxGroup := w.maxGroup
	fsyncs := w.fsyncs
	w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	var size int64
	for _, s := range w.segSizes {
		size += s
	}
	return Stats{
		Appends:             w.appends,
		Fsyncs:              fsyncs,
		GroupCommits:        groups,
		MaxGroupSize:        maxGroup,
		LastLSN:             w.nextLSN - 1,
		DurableLSN:          durable,
		Segments:            len(w.segNames),
		TornTailTruncations: w.tornTruncs,
		SizeBytes:           size,
	}
}

// Close flushes, fsyncs (unless SyncOff) and closes the active segment.
func (w *WAL) Close() error {
	var err error
	if w.opts.Sync != SyncOff {
		w.syncMu.Lock()
		err = w.syncLocked()
		w.syncMu.Unlock()
	} else {
		err = w.flush()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		w.f = nil
	}
	if w.failed == nil {
		w.failed = errors.New("wal: closed")
	}
	return err
}
