//go:build !race

package wal

import (
	"testing"

	"repro/internal/rid"
)

// TestAppendFlushZeroAllocs gates the log's steady state: appending a
// small record and flushing it reuses the encode buffer, the pending
// buffer (kept across flushes once the backend has taken its bytes) and
// the MemBackend chunk (made once at full size), so it allocates
// nothing. Not under the race detector, whose instrumentation
// allocates.
func TestAppendFlushZeroAllocs(t *testing.T) {
	l, err := NewLog(NewMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Type: RecHeapUpdate, TxnID: 1, Table: 2, RID: rid.NewPhysical(1, 2, 3),
		Before: []byte("row1"), After: []byte("row2")}
	step := func() {
		lsn, err := l.Append(&rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(lsn); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Fatalf("steady-state Append+Flush allocates %.2f per record, want 0", avg)
	}
}
