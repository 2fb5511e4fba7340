package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/row"
	"repro/internal/storage/colseg"
)

// packAll drives the packer until no row of the engine is IMRS-resident
// (frozen into segments, or written to the heap under DisableColdStore).
func packAll(t *testing.T, e *Engine) {
	t.Helper()
	for i := 0; i < 200; i++ {
		e.Clock().Tick()
	}
	e.Packer().SetForceAggressive(true)
	defer e.Packer().SetForceAggressive(false)
	for i := 0; i < 200 && e.rmap.Len() > 0; i++ {
		e.gc.Drain() // queue the newest rows
		e.Packer().Step()
	}
	if n := e.rmap.Len(); n != 0 {
		t.Fatalf("%d rows still IMRS-resident after packing", n)
	}
}

// commitOne runs op in its own transaction and commits it.
func commitOne(t *testing.T, e *Engine, op func(tx *Txn) (bool, error)) {
	t.Helper()
	tx := e.Begin()
	if ok, err := op(tx); err != nil || !ok {
		tx.Abort()
		t.Fatalf("op: %v %v", ok, err)
	}
	mustCommit(t, tx)
}

// TestScanOneCut: a scan reads one cut of the IMRS, the cold segments
// and the heap, and emits each row exactly once even when, inside its
// first callback, rows move between those homes. The table holds ids
// 1..100 packed out of the IMRS and ids 101..200 in the IMRS; the scan
// emits one row per batch, so the move runs before it has visited most
// rows. The rows it returns must be exactly those its own point reads
// find.
func TestScanOneCut(t *testing.T) {
	cases := []struct {
		name     string
		heapPack bool // DisableColdStore: pack moves rows to new heap RIDs
		move     func(t *testing.T, e *Engine)
		want     int
	}{
		{name: "freeze visible IMRS rows", want: 200, move: packAll},
		{name: "unfreeze by update then refreeze", want: 200, move: func(t *testing.T, e *Engine) {
			before := e.rmap.Len()
			commitOne(t, e, func(tx *Txn) (bool, error) {
				return tx.Update("items", pk(90), func(r row.Row) (row.Row, error) {
					r[2] = row.Int64(-90)
					return r, nil
				})
			})
			if e.rmap.Len() != before+1 {
				t.Fatal("the update did not un-freeze the row into the IMRS")
			}
			packAll(t, e)
		}},
		{name: "cache from cold then refreeze", want: 200, move: func(t *testing.T, e *Engine) {
			before := e.rmap.Len()
			commitOne(t, e, func(tx *Txn) (bool, error) {
				_, ok, err := tx.Get("items", pk(91))
				return ok, err
			})
			if e.rmap.Len() != before+1 {
				t.Fatal("the point read did not cache the frozen row")
			}
			packAll(t, e)
		}},
		{name: "heap pack of virtual rows", heapPack: true, want: 200, move: packAll},
		{name: "delete frozen row", want: 199, move: func(t *testing.T, e *Engine) {
			commitOne(t, e, func(tx *Txn) (bool, error) { return tx.Delete("items", pk(92)) })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := openEngine(t, func(c *Config) {
				coldConfig(c)
				c.CheckpointEvery = 0
				c.DisableColdStore = tc.heapPack
			})
			createItems(t, e)
			insert := func(lo, hi int64) {
				tx := e.Begin()
				for i := lo; i <= hi; i++ {
					if err := tx.Insert("items", itemRow(i, fmt.Sprintf("n%d", i%5), i)); err != nil {
						t.Fatal(err)
					}
				}
				mustCommit(t, tx)
			}
			insert(1, 100)
			packAll(t, e)
			insert(101, 200)

			tx := e.Begin()
			defer tx.Abort()
			seen := map[int64]int{}
			calls := 0
			err := tx.ScanBatches("items", []string{"id"}, 1, func(b *colseg.Batch) bool {
				if calls++; calls == 1 {
					tc.move(t, e)
				}
				for _, id := range b.Cols[0].I64 {
					seen[id]++
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			for id, n := range seen {
				if n != 1 {
					t.Errorf("id %d emitted %d times", id, n)
				}
			}
			found := 0
			for id := int64(1); id <= 200; id++ {
				_, ok, err := tx.Get("items", pk(id))
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					found++
				}
				if ok != (seen[id] > 0) {
					t.Errorf("id %d: point read found=%v, scan emitted it %d times", id, ok, seen[id])
				}
			}
			if len(seen) != tc.want || found != tc.want {
				t.Fatalf("%d distinct ids, want %d (point reads find %d)", len(seen), tc.want, found)
			}
		})
	}
}

// TestScanOneCutUnderLoad is kv_cold in miniature: one goroutine runs
// read-modify-writes (increments) over a sliding window of a table that
// starts frozen, so rows un-freeze into the IMRS; an aggressive packer
// re-freezes them; a scanner checks that every scan returns the table's
// cardinality and that the sum of the incremented column never drops
// from one scan to the next. No inserts, no deletes.
func TestScanOneCutUnderLoad(t *testing.T) {
	const n, window = 2000, 200
	e := openEngine(t, func(c *Config) {
		coldConfig(c)
		c.CheckpointEvery = 0
	})
	createItems(t, e)
	tx := e.Begin()
	for i := int64(1); i <= n; i++ {
		if err := tx.Insert("items", itemRow(i, "w", 0)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	packAll(t, e)

	var stop atomic.Bool
	var wg sync.WaitGroup
	halt := func() { stop.Store(true); wg.Wait() }
	t.Cleanup(halt) // before the engine closes, also when a check fails
	errs := make(chan error, 1)
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; !stop.Load(); i++ {
			id := 1 + (int64(i/20)+rng.Int63n(window))%n
			tx := e.Begin()
			_, err := tx.Update("items", pk(id), func(r row.Row) (row.Row, error) {
				r[2] = row.Int64(r[2].Int() + 1)
				return r, nil
			})
			if err == nil {
				err = tx.Commit()
			} else {
				tx.Abort()
			}
			if err != nil && !errors.Is(err, ErrRetry) {
				errs <- err
				return
			}
		}
	}()
	go func() { // packer
		defer wg.Done()
		e.Packer().SetForceAggressive(true)
		for !stop.Load() {
			e.Packer().Step()
			time.Sleep(time.Millisecond)
		}
	}()

	frozen0 := e.Stats().ColdStore.SegmentsWritten
	var last int64
	scans := 0
	deadline := time.Now().Add(2 * time.Second)
	// Scan on until the life cycle has run beside the scans (checked
	// below): on a loaded machine 200 scans can finish before the writer
	// commits or the packer re-freezes.
	lifeCycle := func() bool {
		cs := e.Stats().ColdStore
		return cs.Unfreezes > 0 && cs.SegmentsWritten > frozen0 && last > 0
	}
	for scans < 20 || time.Now().Before(deadline) && (scans < 200 || !lifeCycle()) {
		tx := e.Begin()
		var rows, sum int64
		err := tx.ScanBatches("items", []string{"qty"}, 0, func(b *colseg.Batch) bool {
			rows += int64(b.Len())
			for _, v := range b.Cols[0].I64 {
				sum += v
			}
			return true
		})
		tx.Abort()
		if err != nil {
			t.Fatal(err)
		}
		if rows != n {
			t.Fatalf("scan %d returned %d rows, table has %d", scans, rows, n)
		}
		if sum < last {
			t.Fatalf("scan %d: sum went from %d to %d", scans, last, sum)
		}
		last = sum
		scans++
	}
	halt()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	cs := e.Stats().ColdStore
	if !lifeCycle() {
		t.Fatalf("no life cycle ran beside the scans: %+v, sum %d", cs, last)
	}
	t.Logf("%d scans, %d un-freezes, %d segments written", scans, cs.Unfreezes, cs.SegmentsWritten-frozen0)
}
