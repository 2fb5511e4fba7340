package wal

import (
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/fault"
)

// Flush must ride through a budget of transient backend faults without
// losing frames and, critically, without poisoning the log.
func TestFlushRetriesTransientBackendFaults(t *testing.T) {
	fb := &FaultyBackend{Inner: NewMemBackend()}
	l, err := NewLog(fb)
	if err != nil {
		t.Fatal(err)
	}
	r := fault.NewRetrier(fault.Policy{MaxAttempts: 4})
	r.Sleep = func(time.Duration) {}
	l.SetRetrier(r)

	rec := &Record{Type: RecCommit, TxnID: 7}
	if _, err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	fb.AddTransientAppendFaults(2)
	fb.AddTransientSyncFaults(2)
	if err := l.FlushAll(); err != nil {
		t.Fatalf("flush through transient faults: %v", err)
	}
	if perr := l.Poisoned(); perr != nil {
		t.Fatalf("log poisoned by transient faults: %v", perr)
	}
	if s := r.Stats(); s.Retries != 4 || s.Recovered != 2 {
		t.Fatalf("retrier stats = %+v", s)
	}

	// The flushed frame must be intact.
	rd, err := l.NewReader(0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != RecCommit || got.TxnID != 7 {
		t.Fatalf("read back %+v", got)
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

// Group commit sits on top of Flush, so a transient glitch during a
// coalesced commit flush must also be invisible to committers.
func TestGroupCommitSurvivesTransientFaults(t *testing.T) {
	fb := &FaultyBackend{Inner: NewMemBackend()}
	l, err := NewLog(fb)
	if err != nil {
		t.Fatal(err)
	}
	r := fault.NewRetrier(fault.Policy{MaxAttempts: 5})
	r.Sleep = func(time.Duration) {}
	l.SetRetrier(r)

	fb.AddTransientSyncFaults(3)
	lsn, err := l.Append(&Record{Type: RecCommit, TxnID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatalf("WaitDurable through transient faults: %v", err)
	}
	if perr := l.Poisoned(); perr != nil {
		t.Fatalf("log poisoned: %v", perr)
	}
}

// Exhausting the retry budget must surface the failure (and, on the
// commit path, still poison) rather than hang or succeed silently.
func TestFlushExhaustionSurfaces(t *testing.T) {
	fb := &FaultyBackend{Inner: NewMemBackend()}
	l, err := NewLog(fb)
	if err != nil {
		t.Fatal(err)
	}
	r := fault.NewRetrier(fault.Policy{MaxAttempts: 2})
	r.Sleep = func(time.Duration) {}
	l.SetRetrier(r)

	if _, err := l.Append(&Record{Type: RecCommit, TxnID: 1}); err != nil {
		t.Fatal(err)
	}
	fb.AddTransientSyncFaults(100)
	err = l.FlushAll()
	if !errors.Is(err, fault.ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
}

// Close must release the backend even when the log is poisoned, and the
// aggregate error must still carry the poisoning.
func TestCloseClosesBackendWhenPoisoned(t *testing.T) {
	fb := &FaultyBackend{Inner: NewMemBackend(), FailSyncsAfter: 0}
	l, err := NewLog(fb)
	if err != nil {
		t.Fatal(err)
	}
	l.poison(errors.New("boom"))
	closed := &closeTrackingBackend{Backend: fb}
	l.backend = closed
	err = l.Close()
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Close error = %v, want ErrPoisoned in the chain", err)
	}
	if !closed.closed {
		t.Fatal("Close must close the backend even when poisoned")
	}
}

type closeTrackingBackend struct {
	Backend
	closed bool
}

func (b *closeTrackingBackend) Close() error {
	b.closed = true
	return b.Backend.Close()
}
