package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/row"
)

// fillPastThreshold inserts rows until IMRS utilization exceeds frac.
func fillPastThreshold(t *testing.T, e *Engine, frac float64) int64 {
	t.Helper()
	target := int64(frac * float64(e.Store().Allocator().Capacity()))
	var id int64
	for e.Store().Allocator().Used() < target {
		tx := e.Begin()
		for i := 0; i < 50; i++ {
			id++
			if err := tx.Insert("items", itemRow(id, fmt.Sprintf("name-%d-padpadpadpadpadpad", id), id)); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)
	}
	return id
}

// queueColdItems commits rows 1..n into "items" (IMRS rows), ages them
// past the TSF so they count as cold, waits for GC to queue them, and
// arms aggressive pack: the next Packer().Step packs them.
func queueColdItems(t *testing.T, e *Engine, n int) {
	t.Helper()
	tx := e.Begin()
	for i := int64(1); i <= int64(n); i++ {
		if err := tx.Insert("items", itemRow(i, "cold", i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	for i := 0; i < 200; i++ {
		e.Clock().Tick()
	}
	waitQueueLen(t, e, n)
	e.Packer().SetForceAggressive(true)
}

func TestPackEndToEnd(t *testing.T) {
	e := openEngine(t, func(c *Config) {
		c.IMRSCacheBytes = 1 << 20
		c.PackInterval = time.Hour // background loop off; drive manually
		c.ILM.InitialTSF = 1
		c.ILM.PackCyclePct = 0.30
	})
	createItems(t, e)
	n := fillPastThreshold(t, e, 0.85)

	// Make every row stale so the TSF calls them cold.
	for i := 0; i < 100; i++ {
		e.Clock().Tick()
	}
	usedBefore := e.Store().Allocator().Used()
	// Queue maintenance is asynchronous (GC); wait for it to catch up.
	waitQueueLen(t, e, int(n))
	e.Packer().Step()
	if e.Packer().RowsPacked.Load() == 0 {
		t.Fatal("nothing packed")
	}
	if e.Store().Allocator().Used() >= usedBefore {
		t.Fatal("utilization did not drop")
	}

	// Every row must still be readable (from either store), with intact
	// content and working indexes.
	tx := e.Begin()
	for id := int64(1); id <= n; id++ {
		rw, ok, err := tx.Get("items", pk(id))
		if err != nil || !ok {
			t.Fatalf("row %d lost after pack: %v %v", id, ok, err)
		}
		if rw[2].Int() != id {
			t.Fatalf("row %d corrupted after pack", id)
		}
	}
	mustCommit(t, tx)
}

func waitQueueLen(t *testing.T, e *Engine, want int) {
	t.Helper()
	prt := e.table0(t, "items")
	for i := 0; i < 2000; i++ {
		if e.Queues().QueuedRows(prt.cat.ID) >= want {
			return
		}
		// GC ticks every millisecond.
		if i > 0 && i%100 == 0 {
			t.Logf("queued %d / %d", e.Queues().QueuedRows(prt.cat.ID), want)
		}
		sleepMs(1)
	}
	t.Fatalf("queue never reached %d rows (have %d)", want, e.Queues().QueuedRows(e.table0(t, "items").cat.ID))
}

func TestPackedRowUpdatableAgain(t *testing.T) {
	e := openEngine(t, func(c *Config) {
		c.IMRSCacheBytes = 1 << 20
		c.PackInterval = time.Hour
		c.ILM.InitialTSF = 1
		c.ILM.PackCyclePct = 0.50
	})
	createItems(t, e)
	n := fillPastThreshold(t, e, 0.85)
	for i := 0; i < 100; i++ {
		e.Clock().Tick()
	}
	waitQueueLen(t, e, int(n))
	e.Packer().Step()
	if e.Packer().RowsPacked.Load() == 0 {
		t.Fatal("nothing packed")
	}

	// Update a row that was packed to the page store: it migrates back.
	tx := e.Begin()
	ok, err := tx.Update("items", pk(1), func(r row.Row) (row.Row, error) {
		r[2] = row.Int64(-1)
		return r, nil
	})
	if err != nil || !ok {
		t.Fatalf("update packed row: %v %v", ok, err)
	}
	mustCommit(t, tx)

	tx2 := e.Begin()
	rw, ok, _ := tx2.Get("items", pk(1))
	if !ok || rw[2].Int() != -1 {
		t.Fatalf("packed-then-updated row wrong: %v %v", rw, ok)
	}
	mustCommit(t, tx2)
}

func TestPackSkipsLockedRows(t *testing.T) {
	e := openEngine(t, func(c *Config) {
		c.IMRSCacheBytes = 1 << 20
		c.PackInterval = time.Hour
		c.ILM.InitialTSF = 1
		c.ILM.PackCyclePct = 0.90
	})
	createItems(t, e)
	n := fillPastThreshold(t, e, 0.80)
	for i := 0; i < 100; i++ {
		e.Clock().Tick()
	}
	waitQueueLen(t, e, int(n))

	// Hold a row lock via an open update.
	tx := e.Begin()
	if _, err := tx.Update("items", pk(1), func(r row.Row) (row.Row, error) {
		r[2] = row.Int64(1000)
		return r, nil
	}); err != nil {
		t.Fatal(err)
	}

	e.Packer().Step()
	// The locked row must not have been packed: its entry is intact.
	mustCommit(t, tx)
	tx2 := e.Begin()
	rw, ok, err := tx2.Get("items", pk(1))
	if err != nil || !ok || rw[2].Int() != 1000 {
		t.Fatalf("locked row damaged by pack: %v %v %v", rw, ok, err)
	}
	mustCommit(t, tx2)
}

func TestStableUtilizationUnderLoad(t *testing.T) {
	e := openEngine(t, func(c *Config) {
		c.IMRSCacheBytes = 1 << 20
		c.PackInterval = time.Hour
		c.ILM.InitialTSF = 50
		c.ILM.PackCyclePct = 0.10
	})
	createItems(t, e)

	capB := float64(e.Store().Allocator().Capacity())
	// ~1 KB rows: 60 rounds × 40 rows ≈ 2.4 MB pushed through a 1 MB
	// cache, so pack must continuously evict to keep utilization stable.
	payload := make([]byte, 980)
	for i := range payload {
		payload[i] = 'p'
	}
	var id int64
	maxUtil := 0.0
	for round := 0; round < 60; round++ {
		tx := e.Begin()
		for i := 0; i < 40; i++ {
			id++
			if err := tx.Insert("items", itemRow(id, string(payload), id)); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		mustCommit(t, tx)
		sleepMs(2) // let GC enqueue
		e.Packer().Step()
		if u := float64(e.Store().Allocator().Used()) / capB; u > maxUtil {
			maxUtil = u
		}
	}
	// Pack must keep utilization from running away to 100%.
	if maxUtil > 0.99 {
		t.Fatalf("utilization ran away: %.2f", maxUtil)
	}
	if e.Packer().RowsPacked.Load() == 0 {
		t.Fatal("pack never engaged")
	}
}
