package shard

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/row"
)

// TestCheckpointBesideCrossShardWriters: two shards checkpoint every
// 50 ms while cross-shard writers run, half of them writing shard 0
// first and half shard 1 first. A transaction holds each shard's
// checkpoint lock shared from its first access there until it commits,
// so one that holds shard 0 and begins on shard 1, beside one that holds
// shard 1 and begins on shard 0, must not wait behind two pending
// checkpoints that wait for both. The writers never pause between
// transactions; they must finish, and neither shard's checkpoints may
// starve while they run.
func TestCheckpointBesideCrossShardWriters(t *testing.T) {
	media := newMedia(2)
	cfg := nodeConfig(media)
	engine := cfg.Engine
	cfg.Engine = func(i int) core.Config {
		c := engine(i)
		c.CheckpointEvery = 50 * time.Millisecond
		return c
	}
	n, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	createItems(t, n)

	const writers = 4
	var keys [writers][2]int64 // per writer: one key on shard 0, one on shard 1
	for w, next := 0, int64(1); w < writers; w++ {
		for s := 0; s < 2; s++ {
			for n.r.shardOfKey(pk(next)) != s {
				next++
			}
			keys[w][s] = next
			next++
		}
	}
	tx := n.Begin()
	for _, kk := range keys {
		for _, k := range kk {
			if err := tx.Insert("items", itemRow(k, 0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	var start [2]int64
	for s := range start {
		start[s] = n.Engine(s).Stats().Checkpoints
	}
	incr := func(r row.Row) (row.Row, error) {
		r[2] = row.Int64(r[2].Int() + 1)
		return r, nil
	}
	const txns = 200 // per writer
	began := time.Now()
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			first := w % 2 // which shard this writer touches first
			for i := 0; i < txns; i++ {
				tx := n.Begin()
				for _, s := range []int{first, 1 - first} {
					if _, err := tx.Update("items", pk(keys[w][s]), incr); err != nil {
						tx.Abort()
						errs <- fmt.Errorf("writer %d: %w", w, err)
						return
					}
					if s == first {
						// Hold the first shard long enough for both shards'
						// checkpoint ticks to find it held.
						time.Sleep(time.Millisecond)
					}
				}
				if err := tx.Commit(); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	timeout := time.After(30 * time.Second)
	for w := 0; w < writers; w++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			buf := make([]byte, 1<<20)
			t.Fatalf("writers still running after 30 s: a checkpoint deadlock\n%s", buf[:runtime.Stack(buf, true)])
		}
	}
	for s := range start {
		if got := n.Engine(s).Stats().Checkpoints; got <= start[s] {
			t.Errorf("shard %d: no checkpoint completed while the writers ran (%d before, %d after)", s, start[s], got)
		}
	}
	t.Logf("%d cross-shard transactions in %v", writers*txns, time.Since(began))
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}
