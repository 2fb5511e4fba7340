package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
)

// benchEngine opens an engine for the commit benchmark on either
// in-memory or file-backed storage.
func benchEngine(b *testing.B, backend string) *Engine {
	b.Helper()
	cfg := DefaultConfig()
	cfg.IMRSCacheBytes = 256 << 20
	cfg.PackInterval = time.Hour // isolate the commit path
	if backend == "file" {
		cfg.Dir = b.TempDir()
	}
	e, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	if _, err := e.CreateTable("items", testSchema(), []string{"id"}, catalog.PartitionSpec{}, nil); err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkConcurrentCommit measures committed transactions per second
// for one-row insert transactions across goroutine counts and storage
// backends. The commits/s metric on the file backend is the headline
// number: group commit amortizes the fsync.
func BenchmarkConcurrentCommit(b *testing.B) {
	for _, backend := range []string{"mem", "file"} {
		for _, workers := range []int{1, 4, 8, 16} {
			name := fmt.Sprintf("backend=%s/goroutines=%d", backend, workers)
			b.Run(name, func(b *testing.B) {
				e := benchEngine(b, backend)
				var next atomic.Int64
				next.Store(1)
				b.ResetTimer()
				var wg sync.WaitGroup
				per := b.N / workers
				if per == 0 {
					per = 1
				}
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < per; i++ {
							key := next.Add(1)
							tx := e.Begin()
							if err := tx.Insert("items", itemRow(key, "bench", key)); err != nil {
								b.Error(err)
								tx.Abort()
								return
							}
							if err := tx.Commit(); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				commits := float64(per * workers)
				b.ReportMetric(commits/b.Elapsed().Seconds(), "commits/s")
			})
		}
	}
}
