package imrs

import (
	"testing"

	"repro/internal/rid"
)

func BenchmarkAllocFree(b *testing.B) {
	a := NewAllocator(1 << 30)
	data := make([]byte, 200)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			f, err := a.Alloc(data)
			if err != nil {
				b.Fatal(err)
			}
			a.Free(f)
		}
	})
}

func BenchmarkVersionChainRead(b *testing.B) {
	s := NewStore(1 << 20)
	e, err := s.CreateEntry(rid.NewVirtual(1, 1), 1, OriginInserted, []byte("payload"), 1)
	if err != nil {
		b.Fatal(err)
	}
	s.Commit(e.Head(), 1)
	for i := uint64(2); i <= 4; i++ {
		v, err := s.AddVersion(e, []byte("payload"), i)
		if err != nil {
			b.Fatal(err)
		}
		s.Commit(v, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := e.Visible(2, 0); v == nil {
			b.Fatal("version lost")
		}
	}
}

func BenchmarkQueuePushPop(b *testing.B) {
	var q Queue
	entries := make([]*Entry, 1024)
	for i := range entries {
		entries[i] = &Entry{RID: rid.NewVirtual(1, uint64(i))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := entries[i%len(entries)]
		q.PushTail(e)
		q.PopHead()
	}
}

// BenchmarkAblationSingleQueue contrasts per-partition relaxed-LRU
// queues with one database-wide queue (§VI-B): with a single queue, a
// cold partition's rows interleave with hot ones, so the fraction of
// packable rows found at the head collapses.
func BenchmarkAblationSingleQueue(b *testing.B) {
	mkEntry := func(part rid.PartitionID, seq uint64, hot bool) (*Entry, bool) {
		e := &Entry{RID: rid.NewVirtual(part, seq), Part: part}
		return e, hot
	}
	const n = 10000
	headCold := func(single bool) float64 {
		hotness := map[*Entry]bool{}
		var qs [2]Queue
		var one Queue
		// Interleaved arrival: hot partition 1, cold partition 2.
		for i := uint64(0); i < n; i++ {
			e1, h1 := mkEntry(1, i, true)
			e2, h2 := mkEntry(2, i, false)
			hotness[e1], hotness[e2] = h1, h2
			if single {
				one.PushTail(e1)
				one.PushTail(e2)
			} else {
				qs[0].PushTail(e1)
				qs[1].PushTail(e2)
			}
		}
		// A pack pass wants cold rows: count the cold fraction in the
		// first 10% it inspects. Per-partition pack reads the cold
		// partition's queue directly.
		inspect := n / 5
		cold := 0
		if single {
			seen := 0
			one.Walk(func(e *Entry) bool {
				if !hotness[e] {
					cold++
				}
				seen++
				return seen < inspect
			})
		} else {
			seen := 0
			qs[1].Walk(func(e *Entry) bool {
				cold++
				seen++
				return seen < inspect
			})
		}
		return float64(cold) / float64(inspect)
	}
	b.Run("per-partition", func(b *testing.B) {
		var frac float64
		for i := 0; i < b.N; i++ {
			frac = headCold(false)
		}
		b.ReportMetric(frac*100, "cold%-at-head")
	})
	b.Run("single-queue", func(b *testing.B) {
		var frac float64
		for i := 0; i < b.N; i++ {
			frac = headCold(true)
		}
		b.ReportMetric(frac*100, "cold%-at-head")
	})
}
