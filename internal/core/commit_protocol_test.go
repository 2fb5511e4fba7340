package core

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
)

// gateBackend is a MemBackend whose Sync can be held: while a hold is
// armed, every Sync announces itself on entered and then blocks until
// release. Bytes appended before the Sync are already readable, so a
// test can inspect what a log holds while its durability is pending.
type gateBackend struct {
	*wal.MemBackend
	mu      sync.Mutex
	gate    chan struct{}
	entered chan struct{}
}

func gateOver(b *wal.MemBackend) *gateBackend {
	return &gateBackend{MemBackend: b, entered: make(chan struct{}, 1)}
}

func (b *gateBackend) hold() {
	b.mu.Lock()
	b.gate = make(chan struct{})
	b.mu.Unlock()
}

func (b *gateBackend) release() {
	b.mu.Lock()
	if b.gate != nil {
		close(b.gate)
		b.gate = nil
	}
	b.mu.Unlock()
}

func (b *gateBackend) Sync() error {
	b.mu.Lock()
	g := b.gate
	b.mu.Unlock()
	if g != nil {
		select {
		case b.entered <- struct{}{}:
		default: // already announced; nobody has looked yet
		}
		<-g
	}
	return b.MemBackend.Sync()
}

// awaitHeld waits for a Sync to block on the held backend.
func (b *gateBackend) awaitHeld(t *testing.T) {
	t.Helper()
	select {
	case <-b.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no Sync reached the held backend")
	}
}

// recordsFrom decodes every record a backend holds from byte offset off
// on (synced or not).
func recordsFrom(t *testing.T, b *wal.MemBackend, off int64) []wal.Record {
	t.Helper()
	l, err := wal.NewLog(b.Clone())
	if err != nil {
		t.Fatal(err)
	}
	r, err := l.NewReader(uint64(off) + 1)
	if err != nil {
		t.Fatal(err)
	}
	var out []wal.Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
}

// typeSeq renders a record sequence as its types, with the contingency
// flag spelled out on the IMRS commit marker.
func typeSeq(recs []wal.Record) string {
	var parts []string
	for _, r := range recs {
		s := r.Type.String()
		if r.Type == wal.RecIMRSCommit {
			s = fmt.Sprintf("%s/%d", s, r.Aux)
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, " ")
}

// TestCommitProtocolOrdering pins the dual-log commit protocol for every
// caller of the one pipeline: with the sysimrslogs Sync held, syslogs
// (force-flushed, as a racing group flush would) must not yet hold the
// deciding RecCommit — a RecPrepare is fine, its decision comes later —
// the RecIMRSCommit is contingent (Aux=1) exactly when a syslogs outcome
// decides the transaction, and once released each log holds the same
// record-type sequence the four hand-written copies produced (captured
// at the commit before they were folded into one).
func TestCommitProtocolOrdering(t *testing.T) {
	insert := func(tables ...string) func(*Engine) error {
		return func(e *Engine) error {
			tx := e.Begin()
			for _, tb := range tables {
				if err := tx.Insert(tb, itemRow(1, tb, 1)); err != nil {
					tx.Abort()
					return err
				}
			}
			return tx.Commit()
		}
	}
	prepare := func(e *Engine) error {
		tx := e.Begin()
		for _, tb := range []string{"hot", "cold"} {
			if err := tx.Insert(tb, itemRow(1, tb, 1)); err != nil {
				tx.Abort()
				return err
			}
		}
		if err := tx.Prepare(77, 3); err != nil {
			return err
		}
		return tx.CommitPrepared()
	}
	pack := func(e *Engine) error {
		e.Packer().Step()
		if n := e.Packer().RowsPacked.Load(); n != 3 {
			return fmt.Errorf("packed %d rows, want 3", n)
		}
		return nil
	}
	cases := []struct {
		name     string
		heapPack bool // DisableColdStore
		packRows bool // stage three cold IMRS rows in "items" first
		run      func(*Engine) error
		wantIMRS string
		wantSys  string
	}{
		{name: "commit-imrs-only", run: insert("hot"),
			wantIMRS: "imrs-insert imrs-commit/0", wantSys: ""},
		{name: "commit-page-only", run: insert("cold"),
			wantIMRS: "", wantSys: "heap-insert commit"},
		{name: "commit-mixed", run: insert("hot", "cold"),
			wantIMRS: "imrs-insert imrs-commit/1", wantSys: "heap-insert commit"},
		{name: "prepare", run: prepare,
			wantIMRS: "imrs-insert imrs-commit/1", wantSys: "heap-insert prepare commit"},
		{name: "heap-pack", heapPack: true, packRows: true, run: pack,
			wantIMRS: "imrs-delete imrs-delete imrs-delete imrs-commit/1",
			wantSys:  "heap-insert heap-insert heap-insert commit"},
		{name: "freeze", packRows: true, run: pack,
			wantIMRS: "imrs-delete imrs-delete imrs-delete imrs-commit/1",
			wantSys:  "seg-freeze commit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, ims := gateOver(wal.NewMemBackend()), gateOver(wal.NewMemBackend())
			e := openEngine(t, func(c *Config) {
				coldConfig(c)
				c.PackThreads = 1
				c.DisableColdStore = tc.heapPack
				c.SysLogBackend, c.IMRSLogBackend = sys, ims
			})
			createHotCold(t, e)
			createItems(t, e)
			if tc.packRows {
				queueColdItems(t, e, 3)
			}
			// Nothing of the setup may trail into the measured window.
			if err := e.syslog.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if err := e.imrslog.FlushAll(); err != nil {
				t.Fatal(err)
			}
			sysOff, _ := sys.Size()
			imsOff, _ := ims.Size()

			ims.hold()
			defer ims.release()
			done := make(chan error, 1)
			go func() { done <- tc.run(e) }()
			if tc.wantIMRS != "" {
				ims.awaitHeld(t)
				// Whatever the transaction has appended to syslogs so far
				// could ride a racing group flush: force that flush.
				if err := e.syslog.FlushAll(); err != nil {
					t.Fatal(err)
				}
				for _, r := range recordsFrom(t, sys.MemBackend, sysOff) {
					if r.Type == wal.RecCommit {
						t.Fatalf("syslogs holds the deciding RecCommit of txn %d while its IMRS half is not durable", r.TxnID)
					}
				}
				if got := typeSeq(recordsFrom(t, ims.MemBackend, imsOff)); got != tc.wantIMRS {
					t.Fatalf("sysimrslogs while held: %q, want %q", got, tc.wantIMRS)
				}
				ims.release()
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("transaction did not finish after the sync was released")
			}
			if got := typeSeq(recordsFrom(t, ims.MemBackend, imsOff)); got != tc.wantIMRS {
				t.Fatalf("sysimrslogs: %q, want %q", got, tc.wantIMRS)
			}
			if got := typeSeq(recordsFrom(t, sys.MemBackend, sysOff)); got != tc.wantSys {
				t.Fatalf("syslogs: %q, want %q", got, tc.wantSys)
			}
		})
	}
}
