package wal

import (
	"testing"

	"repro/internal/rid"
)

func BenchmarkAppend(b *testing.B) {
	l, err := NewLog(NewMemBackend())
	if err != nil {
		b.Fatal(err)
	}
	rec := Record{Type: RecHeapInsert, TxnID: 1, Table: 2,
		RID: rid.NewPhysical(1, 2, 3), After: make([]byte, 128)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(&rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendFlushGroupCommit is one commit on a memory log:
// Append, then WaitDurable through group commit.
func BenchmarkAppendFlushGroupCommit(b *testing.B) {
	l, err := NewLog(NewMemBackend())
	if err != nil {
		b.Fatal(err)
	}
	l.SetPeers(new(Peers))
	rec := Record{Type: RecIMRSInsert, TxnID: 1, After: make([]byte, 128)}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r := rec
			lsn, err := l.Append(&r)
			if err != nil {
				b.Fatal(err)
			}
			if err := l.WaitDurable(lsn); err != nil {
				b.Fatal(err)
			}
		}
	})
}
