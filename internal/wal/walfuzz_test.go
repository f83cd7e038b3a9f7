package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"
)

// refRecord is a record as the reference decoder reads it.
type refRecord struct {
	lsn     uint64
	payload string
}

// refDecode reads a segment's frames by the layout in wal.go, independently
// of the WAL's own reader: the records of its well-formed prefix, and
// whether anything (a short header, a torn or bad-checksum frame) follows
// that prefix. badMagic reports a header that is present but wrong.
func refDecode(data []byte) (recs []refRecord, torn, badMagic bool) {
	if len(data) < len(segMagic) {
		return nil, true, false
	}
	if string(data[:len(segMagic)]) != segMagic {
		return nil, false, true
	}
	for rest := data[len(segMagic):]; len(rest) > 0; {
		if len(rest) < frameHead {
			return recs, true, false
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		if n > maxRecordSize || uint64(len(rest)-frameHead) < uint64(n) {
			return recs, true, false
		}
		body := rest[8 : frameHead+int(n)]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(rest[4:8]) {
			return recs, true, false
		}
		recs = append(recs, refRecord{lsn: binary.LittleEndian.Uint64(rest[8:16]), payload: string(body[8:])})
		rest = rest[frameHead+int(n):]
	}
	return recs, false, false
}

// firstLSN names a segment after the LSN of its first frame, as the WAL
// names the segments it writes, or fallback when there is no frame head.
func firstLSN(data []byte, fallback uint64) uint64 {
	if len(data) >= len(segMagic)+frameHead {
		if lsn := binary.LittleEndian.Uint64(data[len(segMagic)+8:]); lsn > 0 && lsn < 1<<62 {
			return lsn
		}
	}
	return fallback
}

// walBytes returns the segment files a WAL writes for the payloads with
// the given segment size, oldest first.
func walBytes(t testing.TB, segSize int64, payloads ...string) [][]byte {
	fs := NewFaultFS()
	w, err := Open(fs, Options{Sync: SyncAlways, SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if _, err := w.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := sortedList(fs)
	if err != nil {
		t.Fatal(err)
	}
	var segs [][]byte
	for _, n := range names {
		if d := fs.files[n].data; len(d) > len(segMagic) {
			segs = append(segs, append([]byte(nil), d...))
		}
	}
	return segs
}

// FuzzWALDecode writes the fuzzed bytes as one or two segment files (the
// second empty means one) and opens and replays the log. It must never
// panic. Open must fail when the older segment is not a whole sequence of
// well-formed frames: only the newest segment may be torn. When Open
// succeeds, Replay gives exactly the well-formed records (the older
// segment's, then the newest's prefix up to its first bad frame), and a
// record appended then replays back byte for byte after a reopen.
func FuzzWALDecode(f *testing.F) {
	multi := walBytes(f, 1<<20, "alpha", "", "gamma-gamma", "delta")
	f.Add(multi[0], []byte(nil)) // a multi-record segment

	two := walBytes(f, 64, "r1-0123456789", "r2-0123456789", "r3-0123456789", "r4-0123456789", "r5")
	f.Add(two[0], two[1]) // two segments
	// A record whose frame starts at the end of the older segment and
	// goes on in the newer one.
	spanned := append(append([]byte(nil), two[0]...), two[1][len(segMagic):len(segMagic)+10]...)
	f.Add(spanned, append([]byte(segMagic), two[1][len(segMagic)+10:]...))

	f.Add(two[0], two[1][:len(two[1])-5]) // a truncated frame at the tail

	badCRC := append([]byte(nil), two[0]...)
	badCRC[len(badCRC)-1] ^= 0x40
	f.Add(badCRC, two[1])      // a bad checksum before the tail
	f.Add(badCRC, []byte(nil)) // a bad checksum at the tail, which is torn

	f.Fuzz(func(t *testing.T, seg1, seg2 []byte) {
		segs := [][]byte{seg1}
		if len(seg2) > 0 {
			segs = append(segs, seg2)
		}
		fs := NewFaultFS()
		var prev uint64
		for _, data := range segs {
			lsn := firstLSN(data, prev+1)
			if lsn <= prev {
				lsn = prev + 1 // names ascend, as rotation makes them
			}
			prev = lsn
			h, err := fs.Create(segName(lsn))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Write(data); err != nil {
				t.Fatal(err)
			}
			if err := h.Sync(); err != nil {
				t.Fatal(err)
			}
		}

		// What the reference decoder accepts: LSNs from 1 up, consecutive
		// within a segment, rising across segments.
		var want []refRecord
		mustFail := false
		for i, data := range segs {
			recs, torn, badMagic := refDecode(data)
			if badMagic || torn && i < len(segs)-1 {
				mustFail = true
			}
			for j, r := range recs {
				if r.lsn < 1 || j > 0 && r.lsn != recs[j-1].lsn+1 || j == 0 && len(want) > 0 && r.lsn <= want[len(want)-1].lsn {
					mustFail = true
				}
			}
			want = append(want, recs...)
		}

		w, err := Open(fs, Options{Sync: SyncAlways})
		if err != nil {
			if !mustFail && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open failed with a non-corruption error: %v", err)
			}
			return
		}
		if mustFail {
			t.Fatalf("Open accepted a log the reference rejects: %d segments, records %v", len(segs), want)
		}
		got := replayAll(t, w)
		if !slices.Equal(got, want) {
			t.Fatalf("Replay = %v, the reference decodes %v", got, want)
		}

		payload := []byte(fmt.Sprintf("appended after %d records", len(got)))
		lsn, err := w.Append(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Durable(lsn); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w2, err := Open(fs, Options{})
		if err != nil {
			t.Fatalf("reopen after an append: %v", err)
		}
		again := replayAll(t, w2)
		want = append(got, refRecord{lsn: lsn, payload: string(payload)})
		if !slices.Equal(again, want) {
			t.Fatalf("after an append, Replay = %v, want %v", again, want)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func replayAll(t *testing.T, w *WAL) []refRecord {
	t.Helper()
	var out []refRecord
	if err := w.Replay(0, func(lsn uint64, p []byte) error {
		out = append(out, refRecord{lsn: lsn, payload: string(p)})
		return nil
	}); err != nil {
		t.Fatalf("Replay after a successful Open: %v", err)
	}
	return out
}
