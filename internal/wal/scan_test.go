package wal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rid"
)

// countingBackend counts the ReadAt calls a scan makes and remembers
// the longest one: the scanner's buffer is exactly as large as its
// longest read.
type countingBackend struct {
	Backend
	reads, maxRead int
}

func (c *countingBackend) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	c.maxRead = max(c.maxRead, len(p))
	return c.Backend.ReadAt(p, off)
}

// memOf returns a MemBackend holding a copy of data.
func memOf(data []byte) *MemBackend {
	b := NewMemBackend()
	b.Append(data)
	return b
}

// contents returns a copy of everything b holds.
func (b *MemBackend) contents() []byte {
	size, _ := b.Size()
	p := make([]byte, size)
	b.ReadAt(p, 0)
	return p
}

// flip inverts the byte at off, as a medium that corrupted it would.
func (b *MemBackend) flip(off int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.chunks[off/memChunk][off%memChunk] ^= 0xFF
}

// scanRec is an IMRS insert whose redo image has n bytes, stamped with
// seq so every record of a test is distinct.
func scanRec(seq uint64, n int) Record {
	after := bytes.Repeat([]byte{byte(seq)}, n)
	return Record{Type: RecIMRSInsert, TxnID: seq, RID: rid.RID(seq), After: after}
}

// frameLen is the number of log bytes rec occupies.
func frameLen(rec Record) int64 { return frameHeader + int64(len(rec.encode(nil))) }

// appendRecs appends and flushes recs, returning each record's offset.
func appendRecs(t *testing.T, l *Log, recs []Record) []int64 {
	t.Helper()
	offs := make([]int64, len(recs))
	for i := range recs {
		lsn, err := l.Append(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		offs[i] = int64(lsn - 1)
	}
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return offs
}

// scanAll reads b from fromLSN to the end and returns the
// records and the error that stopped the scan (io.EOF at a clean end).
func scanAll(t *testing.T, b Backend, fromLSN uint64) ([]Record, error) {
	t.Helper()
	l, err := NewLog(b)
	if err != nil {
		t.Fatal(err)
	}
	r, err := l.NewReader(fromLSN)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for {
		rec, err := r.Next()
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// sameRecs fails unless got are want read back at offsets offs.
func sameRecs(t *testing.T, got, want []Record, offs []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.LSN != uint64(offs[i])+1 || g.Type != w.Type || g.TxnID != w.TxnID ||
			g.RID != w.RID || !bytes.Equal(g.After, w.After) || !bytes.Equal(g.Before, w.Before) {
			t.Fatalf("record %d (offset %d) read back as %v/%d/%d with %d-byte image", i, offs[i], g.Type, g.TxnID, g.LSN, len(g.After))
		}
	}
}

// TestScanFramesStraddleBlockBoundary: frames that cross the edge of a
// block read back whole, and so do the frames before and after them.
func TestScanFramesStraddleBlockBoundary(t *testing.T) {
	b := NewMemBackend()
	l, _ := NewLog(b)
	var recs []Record
	for i := 0; i < 3000; i++ {
		recs = append(recs, scanRec(uint64(i+1), 300+(i*37)%1500))
	}
	offs := appendRecs(t, l, recs)
	straddles := 0
	for i, off := range offs {
		if end := off + frameLen(recs[i]); off/blockSize != (end-1)/blockSize {
			straddles++
		}
	}
	if straddles < 2 {
		t.Fatalf("only %d frames straddle a block boundary; the test needs two", straddles)
	}
	got, err := scanAll(t, b, 0)
	if err != io.EOF {
		t.Fatalf("scan stopped with %v", err)
	}
	sameRecs(t, got, recs, offs)
	if n, err := l.RepairTail(); n != 0 || err != nil {
		t.Fatalf("RepairTail on a clean log = (%d, %v)", n, err)
	}
}

// TestScanFrameLargerThanBlock: a 3 MiB segment-freeze frame (larger
// than a block) between small frames grows the buffer to fit and reads
// back whole, from the log start and from its own LSN.
func TestScanFrameLargerThanBlock(t *testing.T) {
	b := &countingBackend{Backend: NewMemBackend()}
	l, _ := NewLog(b)
	big := Record{Type: RecSegFreeze, TxnID: 9, After: bytes.Repeat([]byte("segment!"), 3<<20/8)}
	recs := []Record{scanRec(1, 100), scanRec(2, 5000), big, scanRec(3, 100), {Type: RecCommit, TxnID: 9}}
	offs := appendRecs(t, l, recs)
	got, err := scanAll(t, b, 0)
	if err != io.EOF {
		t.Fatalf("scan stopped with %v", err)
	}
	sameRecs(t, got, recs, offs)
	size, _ := b.Size()
	if b.maxRead > int(size) {
		t.Fatalf("longest read %d bytes, log holds %d", b.maxRead, size)
	}
	got, err = scanAll(t, b, uint64(offs[2])+1)
	if err != io.EOF {
		t.Fatalf("scan from the big frame stopped with %v", err)
	}
	sameRecs(t, got, recs[2:], offs[2:])
	if n, err := l.RepairTail(); n != 0 || err != nil {
		t.Fatalf("RepairTail on a clean log = (%d, %v)", n, err)
	}
}

// TestReaderFromLSNMidBlock: a reader started at a checkpoint's LSN in
// the middle of a block sees exactly the records from there on.
func TestReaderFromLSNMidBlock(t *testing.T) {
	b := NewMemBackend()
	l, _ := NewLog(b)
	var recs []Record
	for i := 0; i < 12000; i++ {
		recs = append(recs, scanRec(uint64(i+1), 150))
	}
	offs := appendRecs(t, l, recs)
	for _, i := range []int{1, 7000, 7001, len(recs) - 1} {
		if offs[i]%blockSize == 0 {
			t.Fatalf("record %d starts on a block boundary", i)
		}
		got, err := scanAll(t, b, uint64(offs[i])+1)
		if err != io.EOF {
			t.Fatalf("scan from record %d stopped with %v", i, err)
		}
		sameRecs(t, got, recs[i:], offs[i:])
	}
}

// blockOfFrames returns 16 records whose 64 KiB frames fill one block.
func blockOfFrames(t *testing.T) []Record {
	t.Helper()
	var recs []Record
	for seq := uint64(1); seq <= 16; seq++ {
		rec := scanRec(seq, 64<<10-frameHeader-30-1-3)
		if frameLen(rec) != 64<<10 {
			t.Fatalf("frame of %d bytes, want 64 KiB", frameLen(rec))
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestTornTailAtBlockBoundary: valid frames end exactly on a block
// boundary and a torn frame starts there — cut in its header, cut in
// its body, with a bad CRC, zero-filled, or a few bytes of garbage. The
// reader stops with ErrTorn after the
// last valid frame and RepairTail cuts the log back to the boundary.
func TestTornTailAtBlockBoundary(t *testing.T) {
	whole := binaryFrame(scanRec(99, 500))
	badCRC := append([]byte(nil), whole...)
	badCRC[len(badCRC)-1] ^= 0xFF
	for name, torn := range map[string][]byte{
		"header":  whole[:5],
		"body":    whole[:len(whole)-10],
		"crc":     badCRC,
		"zeros":   make([]byte, 4<<10),
		"garbage": bytes.Repeat([]byte{0xA5}, 3),
	} {
		t.Run(name, func(t *testing.T) {
			b := NewMemBackend()
			l, _ := NewLog(b)
			recs := blockOfFrames(t)
			offs := appendRecs(t, l, recs)
			if _, err := b.Append(torn); err != nil {
				t.Fatal(err)
			}
			got, err := scanAll(t, b, 0)
			if !errors.Is(err, ErrTorn) {
				t.Fatalf("scan stopped with %v, want ErrTorn", err)
			}
			sameRecs(t, got, recs, offs)
			l2, _ := NewLog(b)
			n, err := l2.RepairTail()
			if err != nil || n != int64(len(torn)) {
				t.Fatalf("RepairTail = (%d, %v), want (%d, nil)", n, err, len(torn))
			}
			if size, _ := b.Size(); size != blockSize {
				t.Fatalf("repaired log holds %d bytes, want %d", size, blockSize)
			}
		})
	}
}

// binaryFrame returns rec framed as Append writes it.
func binaryFrame(rec Record) []byte {
	b := NewMemBackend()
	l, _ := NewLog(b)
	if _, err := l.Append(&rec); err != nil {
		panic(err)
	}
	if err := l.FlushAll(); err != nil {
		panic(err)
	}
	return b.contents()
}

// TestRepairTailMidLogCorruptionBehindTear: a corrupt frame in the
// second block with valid frames behind it is mid-log corruption, not
// a tail tear: RepairTail refuses, truncates nothing, and the reader
// stops at the corrupt frame.
func TestRepairTailMidLogCorruptionBehindTear(t *testing.T) {
	b := NewMemBackend()
	l, _ := NewLog(b)
	var recs []Record
	for i := 0; i < 3000; i++ {
		recs = append(recs, scanRec(uint64(i+1), 700))
	}
	offs := appendRecs(t, l, recs)
	bad := 0
	for offs[bad] < blockSize+blockSize/2 {
		bad++
	}
	b.flip(offs[bad] + frameHeader + 5)
	size, _ := b.Size()
	l2, _ := NewLog(b)
	if _, err := l2.RepairTail(); err == nil || !strings.Contains(err.Error(), "mid-log corruption") {
		t.Fatalf("RepairTail = %v, want mid-log corruption", err)
	}
	if after, _ := b.Size(); after != size {
		t.Fatalf("refused repair truncated the log from %d to %d bytes", size, after)
	}
	got, err := scanAll(t, b, 0)
	if !errors.Is(err, ErrTorn) {
		t.Fatalf("scan stopped with %v, want ErrTorn", err)
	}
	sameRecs(t, got, recs[:bad], offs[:bad])
}

// TestScanReadsInBlocks: a full reader scan and a RepairTail of an
// 8 MiB log of ~150-byte frames each make at most ceil(size/block)+2
// backend reads — not two per frame.
func TestScanReadsInBlocks(t *testing.T) {
	b := &countingBackend{Backend: NewMemBackend()}
	l, _ := NewLog(b)
	var recs []Record
	for seq := uint64(1); int64(len(recs))*frameLen(scanRec(0, 110)) < 8<<20; seq++ {
		recs = append(recs, scanRec(seq, 110))
	}
	appendRecs(t, l, recs)
	size, _ := b.Size()
	limit := int((size+blockSize-1)/blockSize) + 2

	b.reads = 0
	got, err := scanAll(t, b, 0)
	if err != io.EOF || len(got) != len(recs) {
		t.Fatalf("scan read %d of %d records, stopped with %v", len(got), len(recs), err)
	}
	if b.reads > limit {
		t.Fatalf("reader scan of %d bytes (%d frames) made %d reads, want <= %d", size, len(recs), b.reads, limit)
	}
	b.reads = 0
	if n, err := l.RepairTail(); n != 0 || err != nil {
		t.Fatalf("RepairTail = (%d, %v)", n, err)
	}
	if b.reads > limit {
		t.Fatalf("RepairTail of %d bytes (%d frames) made %d reads, want <= %d", size, len(recs), b.reads, limit)
	}
}

// TestRepairTailZeroFilledTail: on both backends, valid frames followed
// by 4 KiB of zeros (a size update persisted before the data) read as
// those frames then ErrTorn, and RepairTail cuts exactly the zeros.
func TestRepairTailZeroFilledTail(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			l, _ := NewLog(b)
			recs := []Record{scanRec(1, 10), scanRec(2, 0), {Type: RecCommit, TxnID: 2}}
			offs := appendRecs(t, l, recs)
			good, _ := b.Size()
			if _, err := b.Append(make([]byte, 4<<10)); err != nil {
				t.Fatal(err)
			}
			got, err := scanAll(t, b, 0)
			if !errors.Is(err, ErrTorn) {
				t.Fatalf("scan stopped with %v, want ErrTorn", err)
			}
			sameRecs(t, got, recs, offs)
			l2, _ := NewLog(b)
			if n, err := l2.RepairTail(); n != 4<<10 || err != nil {
				t.Fatalf("RepairTail = (%d, %v), want (%d, nil)", n, err, 4<<10)
			}
			if size, _ := b.Size(); size != good {
				t.Fatalf("repaired log holds %d bytes, want %d", size, good)
			}
			if got, err := scanAll(t, b, 0); err != io.EOF || len(got) != len(recs) {
				t.Fatalf("after repair: %d records, %v", len(got), err)
			}
		})
	}
}

// TestMemBackendZeroLengthReadAtEnd: a zero-length read at the end of a
// MemBackend succeeds, as it does on a file.
func TestMemBackendZeroLengthReadAtEnd(t *testing.T) {
	for name, b := range backends(t) {
		if _, err := b.Append([]byte("abc")); err != nil {
			t.Fatal(err)
		}
		if n, err := b.ReadAt(nil, 3); n != 0 || err != nil {
			t.Errorf("%s: zero-length read at the end = (%d, %v)", name, n, err)
		}
		if _, err := b.ReadAt(make([]byte, 1), 3); err == nil {
			t.Errorf("%s: one-byte read at the end succeeded", name)
		}
	}
}

// FuzzScanFrames feeds arbitrary bytes to the frame scanner as a whole
// log. Neither the reader nor RepairTail may panic or read (and so
// allocate) more than the log holds, and they must agree: the reader
// returns a prefix of the valid frames, and where it stops at a torn
// frame RepairTail either cuts the log exactly there or reports
// mid-log corruption and cuts nothing.
func FuzzScanFrames(f *testing.F) {
	var valid []byte
	for _, rec := range []Record{scanRec(1, 20), {Type: RecCommit, TxnID: 1, CommitTS: 5}, scanRec(2, 0)} {
		valid = append(valid, binaryFrame(rec)...)
	}
	f.Add(valid)
	f.Add(append(append([]byte(nil), valid...), make([]byte, 64)...))
	f.Add(append(append([]byte(nil), valid...), 0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3, 4))
	mid := append([]byte(nil), valid...)
	mid[frameHeader+3] ^= 0x40
	f.Add(mid)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rb := &countingBackend{Backend: memOf(data)}
		l, err := NewLog(rb)
		if err != nil {
			t.Fatal(err)
		}
		r, err := l.NewReader(0)
		if err != nil {
			t.Fatal(err)
		}
		var stop error
		for stop == nil {
			_, stop = r.Next()
		}
		if rb.maxRead > len(data) {
			t.Fatalf("reader read %d bytes at once from a %d-byte log", rb.maxRead, len(data))
		}

		mb := memOf(data)
		cb := &countingBackend{Backend: mb}
		l2, err := NewLog(cb)
		if err != nil {
			t.Fatal(err)
		}
		n, rerr := l2.RepairTail()
		if cb.maxRead > len(data) {
			t.Fatalf("RepairTail read %d bytes at once from a %d-byte log", cb.maxRead, len(data))
		}
		size, _ := mb.Size()
		switch {
		case stop == io.EOF:
			if rerr != nil || n != 0 || size != int64(len(data)) {
				t.Fatalf("all frames valid, yet RepairTail = (%d, %v)", n, rerr)
			}
		case errors.Is(stop, ErrTorn):
			if rerr == nil && (size != r.off || n != int64(len(data))-r.off) {
				t.Fatalf("reader stopped at a torn frame at %d, RepairTail cut %d bytes to %d", r.off, n, size)
			}
			if rerr != nil && (!strings.Contains(rerr.Error(), "mid-log corruption") || size != int64(len(data))) {
				t.Fatalf("reader stopped at a torn frame at %d, RepairTail = (%d, %v), %d bytes left", r.off, n, rerr, size)
			}
		default:
			// A frame with a valid checksum that does not decode: RepairTail
			// counts it as a frame, so it cuts nothing up to its end.
			if rerr == nil && size <= r.off {
				t.Fatalf("reader stopped at an undecodable frame at %d (%v), RepairTail cut the log to %d", r.off, stop, size)
			}
		}
	})
}

// TestScanFramesFileBackend: the block scanner reads a file backend the
// way it reads memory, across block boundaries.
func TestScanFramesFileBackend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scan.log")
	fb, err := OpenFileBackend(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	l, _ := NewLog(fb)
	var recs []Record
	for i := 0; i < 2500; i++ {
		recs = append(recs, scanRec(uint64(i+1), 1000))
	}
	offs := appendRecs(t, l, recs)
	got, err := scanAll(t, fb, 0)
	if err != io.EOF {
		t.Fatalf("scan stopped with %v", err)
	}
	sameRecs(t, got, recs, offs)
	if fi, err := os.Stat(path); err != nil || fi.Size() != offs[len(offs)-1]+frameLen(recs[len(recs)-1]) {
		t.Fatalf("log file: %v, %v", fi, err)
	}
}
