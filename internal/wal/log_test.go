package wal

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rid"
)

func backends(t *testing.T) map[string]Backend {
	t.Helper()
	fb, err := OpenFileBackend(filepath.Join(t.TempDir(), "test.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fb.Close() })
	return map[string]Backend{"mem": NewMemBackend(), "file": fb}
}

func TestAppendFlushRead(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			l, err := NewLog(b)
			if err != nil {
				t.Fatal(err)
			}
			recs := []Record{
				{Type: RecHeapInsert, TxnID: 1, Table: 2, RID: rid.NewPhysical(1, 2, 3), After: []byte("row1")},
				{Type: RecHeapUpdate, TxnID: 1, Table: 2, RID: rid.NewPhysical(1, 2, 3), Before: []byte("row1"), After: []byte("row2")},
				{Type: RecCommit, TxnID: 1, CommitTS: 77},
			}
			var lsns []uint64
			for i := range recs {
				lsn, err := l.Append(&recs[i])
				if err != nil {
					t.Fatal(err)
				}
				lsns = append(lsns, lsn)
			}
			if err := l.Flush(lsns[len(lsns)-1]); err != nil {
				t.Fatal(err)
			}
			if l.FlushedLSN() < lsns[len(lsns)-1] {
				t.Fatal("flushed LSN did not advance")
			}
			r, err := l.NewReader(0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; ; i++ {
				rec, err := r.Next()
				if err == io.EOF {
					if i != len(recs) {
						t.Fatalf("read %d records, want %d", i, len(recs))
					}
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				want := recs[i]
				if rec.Type != want.Type || rec.TxnID != want.TxnID || rec.Table != want.Table ||
					rec.RID != want.RID || rec.CommitTS != want.CommitTS ||
					string(rec.Before) != string(want.Before) || string(rec.After) != string(want.After) {
					t.Fatalf("record %d mismatch: %+v vs %+v", i, rec, want)
				}
				if rec.LSN != lsns[i] {
					t.Fatalf("record %d LSN %d, want %d", i, rec.LSN, lsns[i])
				}
			}
		})
	}
}

func TestReaderFromLSN(t *testing.T) {
	l, err := NewLog(NewMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	var lsns []uint64
	for i := 0; i < 10; i++ {
		lsn, err := l.Append(&Record{Type: RecHeapInsert, TxnID: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	r, err := l.NewReader(lsns[5])
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.TxnID != 5 {
		t.Fatalf("first record from LSN[5] has TxnID %d, want 5", rec.TxnID)
	}
}

func TestLogReopenContinues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reopen.log")
	b, err := OpenFileBackend(path)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLog(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Type: RecCommit, TxnID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	b2, err := OpenFileBackend(path)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := NewLog(b2)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := l2.Append(&Record{Type: RecCommit, TxnID: 2}); err != nil {
		t.Fatal(err)
	}
	r, err := l2.NewReader(0)
	if err != nil {
		t.Fatal(err)
	}
	var txns []uint64
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		txns = append(txns, rec.TxnID)
	}
	if len(txns) != 2 || txns[0] != 1 || txns[1] != 2 {
		t.Fatalf("txns across reopen = %v", txns)
	}
}

func TestCorruptionDetected(t *testing.T) {
	b := NewMemBackend()
	l, err := NewLog(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Type: RecCommit, TxnID: 9, After: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the body.
	b.flip(frameHeader + 3)
	r, err := l.NewReader(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Fatalf("corrupt record not detected: %v", err)
	}
}

func TestFlushIdempotent(t *testing.T) {
	l, err := NewLog(NewMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(&Record{Type: RecCommit})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Flush(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Stats().Flushes.Load(); got != 1 {
		t.Fatalf("flushes = %d, want 1 (idempotent)", got)
	}
}

func TestConcurrentAppenders(t *testing.T) {
	l, err := NewLog(NewMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rec := Record{Type: RecHeapInsert, TxnID: uint64(w), After: []byte(fmt.Sprintf("w%d-%d", w, i))}
				lsn, err := l.Append(&rec)
				if err != nil {
					t.Error(err)
					return
				}
				if err := l.Flush(lsn); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	r, err := l.NewReader(0)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	perWorkerSeq := map[uint64]int{}
	lastLSN := uint64(0)
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.LSN <= lastLSN {
			t.Fatal("LSNs not strictly increasing")
		}
		lastLSN = rec.LSN
		perWorkerSeq[rec.TxnID]++
		count++
	}
	if count != workers*per {
		t.Fatalf("read %d records, want %d", count, workers*per)
	}
	for w, n := range perWorkerSeq {
		if n != per {
			t.Fatalf("worker %d has %d records", w, n)
		}
	}
}

func TestRecordEncodeDecodeProperty(t *testing.T) {
	f := func(typ uint8, txn uint64, table uint32, ridBits uint64, cts uint64, before, after []byte) bool {
		in := Record{
			Type: RecType(typ), TxnID: txn, Table: table, RID: rid.RID(ridBits),
			CommitTS: cts, Before: before, After: after,
		}
		out, err := decodeRecord(in.encode(nil))
		if err != nil {
			return false
		}
		return out.Type == in.Type && out.TxnID == in.TxnID && out.Table == in.Table &&
			out.RID == in.RID && out.CommitTS == in.CommitTS &&
			string(out.Before) == string(before) && string(out.After) == string(after)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailStopsIteration(t *testing.T) {
	b := NewMemBackend()
	l, _ := NewLog(b)
	if _, err := l.Append(&Record{Type: RecCommit, TxnID: 1}); err != nil {
		t.Fatal(err)
	}
	_ = l.FlushAll()
	// Simulate a torn write: append garbage that looks like a frame start.
	b.Append([]byte{0xEE, 0x00, 0x00, 0x00}) // partial header
	r, err := l.NewReader(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatalf("first record should read fine: %v", err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Fatalf("torn tail should error, got %v", err)
	}
}

// TestMemBackendChunks: appends, reads and truncations that cross the
// MemBackend's chunk boundaries see one contiguous log, and a clone is
// independent of its source.
func TestMemBackendChunks(t *testing.T) {
	b := NewMemBackend()
	want := make([]byte, 0, 3*memChunk)
	for i := 0; len(want) < 2*memChunk+100; i++ {
		p := bytes.Repeat([]byte{byte(i)}, 1+i*7919%(memChunk/3))
		off, err := b.Append(p)
		if err != nil || off != int64(len(want)) {
			t.Fatalf("append at %d: off %d, %v", len(want), off, err)
		}
		want = append(want, p...)
	}
	check := func(b *MemBackend, want []byte) {
		t.Helper()
		if got := b.contents(); !bytes.Equal(got, want) {
			t.Fatalf("backend holds %d bytes, differing from the %d appended", len(got), len(want))
		}
		p := make([]byte, 10)
		if _, err := b.ReadAt(p, memChunk-5); err != nil || !bytes.Equal(p, want[memChunk-5:memChunk+5]) {
			t.Fatalf("read across a chunk boundary: %v", err)
		}
	}
	check(b, want)
	c, orig := b.Clone(), append([]byte(nil), want...)
	for _, n := range []int64{2*memChunk + 3, 2 * memChunk, memChunk + 17} {
		if err := b.Truncate(n); err != nil {
			t.Fatal(err)
		}
		want = want[:n]
		check(b, want)
	}
	b.Append([]byte("tail"))
	want = append(want, "tail"...)
	check(b, want)
	check(c, orig) // the clone did not change with its source
}
