package wal

import (
	"errors"
	"io"
	"sync/atomic"
	"testing"
	"time"
)

// flakySyncBackend fails Sync on demand but — unlike FaultyBackend —
// stays alive otherwise, so poison's truncate-back-to-watermark can
// succeed.
type flakySyncBackend struct {
	*MemBackend
	fail atomic.Bool
}

func (b *flakySyncBackend) Sync() error {
	if b.fail.Load() {
		return ErrInjected
	}
	return nil
}

func readAll(t *testing.T, b Backend) []Record {
	t.Helper()
	l, err := NewLog(b)
	if err != nil {
		t.Fatal(err)
	}
	r, err := l.NewReader(0)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		recs = append(recs, rec)
	}
}

func TestRepairTailTruncatesTornFrame(t *testing.T) {
	b := NewMemBackend()
	l, err := NewLog(b)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 2; id++ {
		if _, err := l.Append(&Record{Type: RecCommit, TxnID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
	good, _ := b.Size()
	if _, err := b.Append([]byte{0xDE, 0xAD, 0xBE}); err != nil { // torn header
		t.Fatal(err)
	}

	l2, err := NewLog(b)
	if err != nil {
		t.Fatal(err)
	}
	n, err := l2.RepairTail()
	if err != nil {
		t.Fatalf("RepairTail: %v", err)
	}
	if n != 3 {
		t.Fatalf("discarded %d bytes, want 3", n)
	}
	if size, _ := b.Size(); size != good {
		t.Fatalf("backend size %d after repair, want %d", size, good)
	}
	// The repaired log appends at the true tail: a third record lands
	// where the garbage sat, and a full scan sees all three records.
	if _, err := l2.Append(&Record{Type: RecCommit, TxnID: 3}); err != nil {
		t.Fatal(err)
	}
	if err := l2.FlushAll(); err != nil {
		t.Fatal(err)
	}
	recs := readAll(t, b)
	if len(recs) != 3 || recs[2].TxnID != 3 {
		t.Fatalf("read %d records after repair+append, want 3 ending in TxnID 3: %+v", len(recs), recs)
	}
}

func TestRepairTailTruncatesCutShortBody(t *testing.T) {
	b := NewMemBackend()
	l, err := NewLog(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Type: RecCommit, TxnID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
	good, _ := b.Size()
	// A complete header claiming a 100-byte body, with only 4 body bytes
	// on the medium: the batch write died mid-body.
	if _, err := b.Append([]byte{100, 0, 0, 0, 1, 2, 3, 4, 9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	l2, err := NewLog(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.RepairTail(); err != nil {
		t.Fatalf("RepairTail: %v", err)
	}
	if size, _ := b.Size(); size != good {
		t.Fatalf("backend size %d after repair, want %d", size, good)
	}
}

func TestRepairTailCleanLogIsNoop(t *testing.T) {
	b := NewMemBackend()
	l, err := NewLog(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Type: RecCommit, TxnID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
	n, err := l.RepairTail()
	if err != nil || n != 0 {
		t.Fatalf("clean log repair = (%d, %v), want (0, nil)", n, err)
	}
}

func TestRepairTailRejectsMidLogCorruption(t *testing.T) {
	b := NewMemBackend()
	l, err := NewLog(b)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 3; id++ {
		if _, err := l.Append(&Record{Type: RecCommit, TxnID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Flip a body byte of the FIRST frame: its CRC fails while two valid
	// frames follow — a tear that cannot be a crash artifact.
	b.flip(frameHeader)
	l2, err := NewLog(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.RepairTail(); err == nil {
		t.Fatal("mid-log corruption repaired as a tail tear")
	}
}

func TestGroupFlushFailurePoisonsLog(t *testing.T) {
	b := &flakySyncBackend{MemBackend: NewMemBackend()}
	l, err := NewLog(b)
	if err != nil {
		t.Fatal(err)
	}

	lsn1, _ := l.Append(&Record{Type: RecCommit, TxnID: 1})
	if err := l.WaitDurable(lsn1); err != nil {
		t.Fatal(err)
	}
	durable, _ := b.Size()

	b.fail.Store(true)
	lsn2, _ := l.Append(&Record{Type: RecCommit, TxnID: 2})
	if err := l.WaitDurable(lsn2); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected sync error, got %v", err)
	}

	// The log is poisoned: the rolled-back committer's frame must never
	// become durable, so appends and flushes are refused...
	if _, err := l.Append(&Record{Type: RecCommit, TxnID: 3}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after poison: %v, want ErrPoisoned", err)
	}
	b.fail.Store(false) // even once the device heals
	if err := l.Flush(lsn2); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("flush after poison: %v, want ErrPoisoned", err)
	}
	// ...and the backend was scrubbed back to the durable watermark.
	if size, _ := b.Size(); size != durable {
		t.Fatalf("backend holds %d bytes after poison, want %d (durable watermark)", size, durable)
	}
	recs := readAll(t, b.MemBackend)
	if len(recs) != 1 || recs[0].TxnID != 1 {
		t.Fatalf("medium holds %+v, want only the acknowledged record", recs)
	}
}

// TestLeaderFlushFailurePoisonsLog: a lone committer leads its round,
// so the failure of the flush it runs itself is a failed commit all
// the same.
func TestLeaderFlushFailurePoisonsLog(t *testing.T) {
	b := &flakySyncBackend{MemBackend: NewMemBackend()}
	l, err := NewLog(b)
	if err != nil {
		t.Fatal(err)
	}
	b.fail.Store(true)
	lsn, _ := l.Append(&Record{Type: RecCommit, TxnID: 1})
	if err := l.WaitDurable(lsn); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected sync error, got %v", err)
	}
	if _, err := l.Append(&Record{Type: RecCommit, TxnID: 2}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after poison: %v, want ErrPoisoned", err)
	}
	if size, _ := b.Size(); size != 0 {
		t.Fatalf("backend holds %d bytes, want 0: nothing was ever acknowledged", size)
	}
}

func TestAbortGroupCommitIsCrashExact(t *testing.T) {
	b := newGateBackend()
	l, err := NewLog(b)
	if err != nil {
		t.Fatal(err)
	}
	l.SetPeers(new(Peers))
	// One round is in flight at the crash (its bytes written, its sync
	// pending); the committer under test is queued behind it.
	first := holdOneCommitter(t, l, b)
	inFlight, _ := b.Size()
	lsn, _ := l.Append(&Record{Type: RecCommit, TxnID: 2})
	done := make(chan error, 1)
	go func() { done <- l.WaitDurable(lsn) }()
	awaitQueued(t, l, 1)
	aborted := make(chan struct{})
	go func() { l.AbortGroupCommit(); close(aborted) }()
	for !l.gcHalted.Load() {
		time.Sleep(time.Millisecond)
	}
	b.release()
	if err := awaitOutcome(t, first, "in-flight committer"); err != nil {
		t.Fatalf("in-flight round: %v", err)
	}
	if err := awaitOutcome(t, done, "queued waiter after AbortGroupCommit"); !errors.Is(err, ErrHalted) {
		t.Fatalf("queued waiter got %v, want ErrHalted", err)
	}
	<-aborted
	if size, _ := b.Size(); size != inFlight {
		t.Fatalf("abort flushed %d bytes of queued commits; a crash would have flushed none", size-inFlight)
	}
	// The commit path stays dead: no fallback flush may run either.
	if err := l.WaitDurable(lsn); !errors.Is(err, ErrHalted) {
		t.Fatalf("WaitDurable after abort: %v, want ErrHalted", err)
	}
	if size, _ := b.Size(); size != inFlight {
		t.Fatalf("post-abort WaitDurable flushed %d bytes", size-inFlight)
	}
}
