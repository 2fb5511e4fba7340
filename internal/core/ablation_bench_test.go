package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/catalog"
)

// Paper ablations measured at the engine (DESIGN.md §5).

// BenchmarkAblationNoTSF measures what the timestamp filter buys on a
// workload whose working set is hot: with TSF, steady-level pack skips
// recently-accessed rows (SkippedHot grows, churn stays 0); without it,
// hot rows are evicted and must re-enter the IMRS on the next access —
// the wasted round trips the paper's Section VI warns about.
func BenchmarkAblationNoTSF(b *testing.B) {
	run := func(b *testing.B, tsfOn bool) {
		var churn, skipped float64
		for i := 0; i < b.N; i++ {
			cfg := DefaultConfig()
			cfg.IMRSCacheBytes = 2 << 20
			cfg.PackInterval = time.Hour // step manually
			cfg.ILM.PackCyclePct = 0.30
			if tsfOn {
				cfg.ILM.InitialTSF = 1 << 40 // recent rows count as hot
				cfg.ILM.MinReuseRateForTSF = 0
			} else {
				cfg.ILM.InitialTSF = 0 // no hotness shield
				cfg.ILM.MinReuseRateForTSF = 1e18
			}
			eng, err := Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.CreateTable("items", testSchema(), []string{"id"}, catalog.PartitionSpec{}, nil); err != nil {
				b.Fatal(err)
			}
			pad := string(make([]byte, 900))
			tx := eng.Begin()
			const n = 1800 // ~85% of the cache
			for j := int64(0); j < n; j++ {
				if err := tx.Insert("items", itemRow(j, pad, 0)); err != nil {
					b.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
			// The whole set is re-read (hot), then pack runs.
			for round := 0; round < 3; round++ {
				tx := eng.Begin()
				for j := int64(0); j < n; j++ {
					if _, _, err := tx.Get("items", pk(j)); err != nil {
						b.Fatal(err)
					}
				}
				_ = tx.Commit()
				time.Sleep(5 * time.Millisecond) // GC queue maintenance
				eng.Packer().Step()
			}
			snap := eng.Stats()
			churn += float64(snap.Partitions[0].Cachings + snap.Partitions[0].Migrations)
			skipped += float64(snap.RowsSkipped)
			_ = eng.Close()
		}
		b.ReportMetric(churn/float64(b.N), "reentry-churn")
		b.ReportMetric(skipped/float64(b.N), "hot-rows-skipped")
	}
	b.Run("tsf-on", func(b *testing.B) { run(b, true) })
	b.Run("tsf-off", func(b *testing.B) { run(b, false) })
}

// BenchmarkHashIndexFastPath measures the IMRS hash index as a point
// read accelerator under the unique PK B-tree (§II), at a table size
// where any sizing of the hash table looks good and at kv_hot's.
func BenchmarkHashIndexFastPath(b *testing.B) {
	run := func(b *testing.B, n int64, disableHash bool) {
		cfg := DefaultConfig()
		cfg.IMRSCacheBytes = 64 << 20
		cfg.DisableHashIndex = disableHash
		eng, err := Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = eng.Close() })
		if _, err := eng.CreateTable("items", testSchema(), []string{"id"}, catalog.PartitionSpec{}, nil); err != nil {
			b.Fatal(err)
		}
		tx := eng.Begin()
		for i := int64(0); i < n; i++ {
			if err := tx.Insert("items", itemRow(i, "row-value", 0)); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := rng.Int63n(n)
			tx := eng.Begin()
			_, ok, err := tx.Get("items", pk(id))
			if !ok || err != nil {
				b.Fatalf("get %d: %v", id, err)
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, n := range []int64{10_000, 200_000} {
		b.Run(fmt.Sprintf("rows=%d/hash-on", n), func(b *testing.B) { run(b, n, false) })
		b.Run(fmt.Sprintf("rows=%d/btree-only", n), func(b *testing.B) { run(b, n, true) })
	}
}
