// Command btrimd is the BTrim wire server: it opens (or creates) a
// database and serves the length-prefixed SQL protocol over TCP, one
// session per connection (DESIGN.md §13).
//
//	btrimd [-addr :4810] [-dir /path/to/db] [-imrs-mb 64] [-shards 0]
//	       [-max-conns 0] [-stmt-timeout 0] [-idle-timeout 0]
//
// The database is a node of -shards engines: statements route by
// primary-key hash and multi-shard transactions commit via 2PC, all
// invisible to the SQL client. -shards 0 serves whatever -dir already
// holds (one shard for a new or in-memory database); a count that
// disagrees with -dir is refused.
//
// SIGINT/SIGTERM starts a graceful drain: the listener closes, every
// live connection is torn down (open transactions abort cleanly), and
// the engine checkpoints on close. Server and engine statistics print
// on exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/btrim"
	"repro/internal/server"
	"repro/internal/sql"
)

func main() {
	addr := flag.String("addr", ":4810", "listen address")
	dir := flag.String("dir", "", "database directory (empty = in-memory)")
	imrsMB := flag.Int64("imrs-mb", 64, "IMRS cache size (MB)")
	shards := flag.Int("shards", 0, "engine shards (0 = what -dir holds, 1 for a new database)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown budget")
	maxConns := flag.Int("max-conns", 0, "max concurrent connections (0 = unlimited)")
	stmtTimeout := flag.Duration("stmt-timeout", 0, "per-statement deadline (0 = none)")
	idleTimeout := flag.Duration("idle-timeout", 0, "idle-connection reap timeout (0 = never)")
	flag.Parse()

	db, err := btrim.Open(btrim.Config{Dir: *dir, IMRSCacheBytes: *imrsMB << 20, Shards: *shards})
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	srv := server.NewWithConfig(sql.Wrap(db), server.Config{
		MaxConns:         *maxConns,
		StatementTimeout: *stmtTimeout,
		IdleTimeout:      *idleTimeout,
	})
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe(*addr) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("btrimd listening on %s (shards=%d)\n", *addr, db.NumShards())

	select {
	case s := <-sig:
		fmt.Printf("btrimd: %v, draining (budget %v)\n", s, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "drain:", err)
		}
		if err := <-errCh; err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
		}
	case err := <-errCh:
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			_ = db.Close()
			os.Exit(1)
		}
	}

	st := srv.Stats()
	fmt.Printf("server: sessions=%d statements=%d rows=%d commits=%d rollbacks=%d errors=%d drain-aborts=%d\n",
		st.TotalSessions, st.Statements, st.RowsReturned, st.Commits, st.Rollbacks, st.Errors, st.DrainAborts)
	if st.OverCapacityRejects+st.IdleReaps+st.PanicRecoveries+st.OversizedFrames > 0 {
		fmt.Printf("server: over-capacity=%d idle-reaps=%d panics-recovered=%d oversized-frames=%d\n",
			st.OverCapacityRejects, st.IdleReaps, st.PanicRecoveries, st.OversizedFrames)
	}
	fmt.Printf("plans: cache-hits=%d misses=%d evictions=%d invalidations=%d prepared-execs=%d\n",
		st.PlanCacheHits, st.PlanCacheMisses, st.PlanCacheEvictions, st.PlanCacheInvalidations, st.PreparedExecs)
	if st.BatchFrames > 0 {
		fmt.Printf("pipeline: frames=%d statements=%d skipped=%d sizes=%v\n",
			st.BatchFrames, st.BatchedStatements, st.SkippedStatements, st.BatchSizes)
	}
	es := db.Stats()
	fmt.Printf("engine: imrs-rows=%d imrs-used=%dB hit-rate=%.2f health=%v\n",
		es.IMRSRows, es.IMRSUsedBytes, es.IMRSHitRate(), es.Health.State)
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "close:", err)
		os.Exit(1)
	}
}
