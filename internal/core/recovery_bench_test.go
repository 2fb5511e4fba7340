package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/row"
)

// BenchmarkRecoverOnePartition times one restart of a 200 k-row table
// that lives in one partition, with a primary-key B-tree and its hash
// fast path, on in-memory logs: the shape where the replay used to fan
// out to a single worker. The three heaviest phases, Total, and the part
// of Total outside every phase are reported in ms per recovery.
//
//	go test ./internal/core -run '^$' -bench RecoverOnePartition -cpu 1,2
func BenchmarkRecoverOnePartition(b *testing.B) {
	const rows, batch = 200_000, 1000
	st := newSharedStorage()
	cfg := func(c *Config) {
		c.IMRSCacheBytes = 128 << 20
		c.BufferPoolPages = 4096
		c.PackInterval = time.Hour
	}
	e, err := Open(st.config(cfg))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.CreateTable("kv", testSchema(), []string{"id"}, catalog.PartitionSpec{}, nil); err != nil {
		b.Fatal(err)
	}
	for lo := int64(0); lo < rows; lo += batch {
		tx := e.Begin()
		for id := lo; id < lo+batch; id++ {
			if err := tx.Insert("kv", itemRow(id, fmt.Sprintf("value-%08d", id), id)); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	// A tenth of the rows get a second version, so the replay applies
	// updates as well as inserts.
	for lo := int64(0); lo < rows; lo += 10 * batch {
		tx := e.Begin()
		for id := lo; id < lo+10*batch; id += 10 {
			if _, err := tx.Update("kv", pk(id), func(r row.Row) (row.Row, error) {
				r[2] = row.Int64(r[2].Int() + 1)
				return r, nil
			}); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Halt(); err != nil {
		b.Fatal(err)
	}

	phases := map[string]time.Duration{}
	var total, timed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e2, err := Open(st.config(cfg))
		if err != nil {
			b.Fatal(err)
		}
		rec := e2.Stats().Recovery
		if rec.EntriesEnqueued != rows {
			b.Fatalf("recovered %d entries, want %d", rec.EntriesEnqueued, rows)
		}
		total += rec.Total
		for _, ph := range rec.Phases {
			phases[ph.Name] += ph.Duration
			timed += ph.Duration
		}
		b.StopTimer()
		_ = e2.Halt()
		b.StartTimer()
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(b.N) }
	for _, name := range []string{PhaseIMRSReplay, PhaseIndexRebuild, PhaseQueueRebuild} {
		b.ReportMetric(ms(phases[name]), name+"-ms")
	}
	b.ReportMetric(ms(total), "total-ms")
	// The share of Total that no phase timer covers.
	b.ReportMetric(ms(total-timed), "untimed-ms")
}
