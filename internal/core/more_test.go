package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/row"
)

// TestSecondaryIndexSurvivesPack: after inserted rows (virtual RIDs) are
// packed to the page store, secondary-index lookups still resolve them
// (pack repoints index entries).
func TestSecondaryIndexSurvivesPack(t *testing.T) {
	e := openEngine(t, func(c *Config) {
		c.IMRSCacheBytes = 1 << 20
		c.PackInterval = time.Hour
		c.ILM.InitialTSF = 1
		c.ILM.PackCyclePct = 0.90
	})
	createItems(t, e)
	n := fillPastThreshold(t, e, 0.85)
	for i := 0; i < 200; i++ {
		e.Clock().Tick()
	}
	waitQueueLen(t, e, int(n))
	e.Packer().Step()
	if e.Packer().RowsPacked.Load() == 0 {
		t.Fatal("setup: nothing packed")
	}

	tx := e.Begin()
	defer func() { _ = tx.Commit() }()
	// Every row is findable by its (unique per row) name via the
	// secondary index, wherever it now lives.
	for _, id := range []int64{1, n / 2, n} {
		name := fmt.Sprintf("name-%d-padpadpadpadpadpad", id)
		rows, err := tx.LookupAll("items", "items_name", []row.Value{row.String(name)})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0][0].Int() != id {
			t.Fatalf("secondary lookup of packed row %d: %d hits", id, len(rows))
		}
	}
}

// TestPageStoreForwardingThroughEngine: a page-store row grown past its
// page's free space moves behind a forwarding stub; the engine keeps
// serving it by its original RID.
func TestPageStoreForwardingThroughEngine(t *testing.T) {
	e := openEngine(t, nil)
	// No secondary index: the growing column must not be an index key.
	if _, err := e.CreateTable("blobs", testSchema(), []string{"id"}, catalogSpecNone(), nil); err != nil {
		t.Fatal(err)
	}
	prt := e.table0(t, "blobs")
	prt.ilm.Pin(false)

	// Fill a page with mid-size rows.
	tx := e.Begin()
	for i := int64(1); i <= 30; i++ {
		if err := tx.Insert("blobs", itemRow(i, strings.Repeat("x", 200), i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	// Grow row 1 far beyond its slot, repeatedly (staying under the
	// single-page record limit of ~8 KB).
	for round := 1; round <= 3; round++ {
		tx := e.Begin()
		big := strings.Repeat("y", 2000*round)
		_, err := tx.Update("blobs", pk(1), func(r row.Row) (row.Row, error) {
			r[1] = row.String(big)
			return r, nil
		})
		if err != nil {
			tx.Abort()
			t.Fatalf("grow round %d: %v", round, err)
		}
		mustCommit(t, tx)
		tx2 := e.Begin()
		rw, ok, err := tx2.Get("blobs", pk(1))
		if err != nil || !ok || len(rw[1].Str()) != 2000*round {
			tx2.Abort()
			t.Fatalf("round %d read: ok=%v err=%v", round, ok, err)
		}
		mustCommit(t, tx2)
	}
	// Scan still sees exactly 30 rows (no stub double-count).
	tx3 := e.Begin()
	count := 0
	_ = tx3.ScanTable("blobs", func(row.Row) bool { count++; return true })
	mustCommit(t, tx3)
	if count != 30 {
		t.Fatalf("scan sees %d rows, want 30", count)
	}
}

// TestDisableHashIndexEndToEnd: with the fast path off, point reads work
// through the B-tree alone.
func TestDisableHashIndexEndToEnd(t *testing.T) {
	e := openEngine(t, func(c *Config) { c.DisableHashIndex = true })
	createItems(t, e)
	tx := e.Begin()
	for i := int64(1); i <= 50; i++ {
		if err := tx.Insert("items", itemRow(i, "h", i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	tx2 := e.Begin()
	for i := int64(1); i <= 50; i++ {
		rw, ok, err := tx2.Get("items", pk(i))
		if err != nil || !ok || rw[2].Int() != i {
			t.Fatalf("btree-only get %d: %v %v", i, ok, err)
		}
	}
	mustCommit(t, tx2)
}

// TestHashIndexGrowsWithTable: the primary index's hash table keeps its
// load factor at or below 1 with nobody sizing it, as Stats reports it.
func TestHashIndexGrowsWithTable(t *testing.T) {
	const n = 200_000
	e := openEngine(t, func(c *Config) {
		c.IMRSCacheBytes = 256 << 20 // every row stays resident
		c.ILMEnabled = false
	})
	if _, err := e.CreateTable("items", testSchema(), []string{"id"}, catalog.PartitionSpec{}, nil); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	for i := int64(0); i < n; i++ {
		if err := tx.Insert("items", itemRow(i, "h", i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	ix := e.Stats().Indexes[0]
	if ix.HashEntries != n || ix.HashBuckets < n || ix.HashLoadFactor > 1 {
		t.Fatalf("after %d inserts: HashEntries = %d HashBuckets = %d HashLoadFactor = %v, want factor <= 1",
			n, ix.HashEntries, ix.HashBuckets, ix.HashLoadFactor)
	}
}

// TestFinishedTxnRejectsEverything.
func TestFinishedTxnRejectsEverything(t *testing.T) {
	e := openEngine(t, nil)
	createItems(t, e)
	tx := e.Begin()
	mustCommit(t, tx)
	if err := tx.Insert("items", itemRow(1, "x", 1)); err != ErrTxnDone {
		t.Fatalf("Insert err = %v", err)
	}
	if _, _, err := tx.Get("items", pk(1)); err != ErrTxnDone {
		t.Fatalf("Get err = %v", err)
	}
	if _, err := tx.Update("items", pk(1), nil); err != ErrTxnDone {
		t.Fatalf("Update err = %v", err)
	}
	if _, err := tx.Delete("items", pk(1)); err != ErrTxnDone {
		t.Fatalf("Delete err = %v", err)
	}
	if err := tx.ScanTable("items", nil); err != ErrTxnDone {
		t.Fatalf("Scan err = %v", err)
	}
	if err := tx.Commit(); err != ErrTxnDone {
		t.Fatalf("double Commit err = %v", err)
	}
	tx.Abort() // no-op, must not panic
}

// TestNonUniqueIndexDuplicatesAndDeletes: many rows share an index key;
// deleting some leaves the others findable.
func TestNonUniqueIndexDuplicatesAndDeletes(t *testing.T) {
	e := openEngine(t, nil)
	createItems(t, e)
	tx := e.Begin()
	for i := int64(1); i <= 20; i++ {
		if err := tx.Insert("items", itemRow(i, "same-name", i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	tx2 := e.Begin()
	for i := int64(1); i <= 10; i++ {
		if ok, err := tx2.Delete("items", pk(i)); err != nil || !ok {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
	}
	mustCommit(t, tx2)

	tx3 := e.Begin()
	rows, err := tx3.LookupAll("items", "items_name", []row.Value{row.String("same-name")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("LookupAll = %d rows, want 10", len(rows))
	}
	for _, r := range rows {
		if r[0].Int() <= 10 {
			t.Fatalf("deleted row %d still indexed", r[0].Int())
		}
	}
	mustCommit(t, tx3)
}

// TestInsertAfterDeleteSameTxn: delete + reinsert of the same key within
// one transaction.
func TestInsertAfterDeleteSameTxn(t *testing.T) {
	e := openEngine(t, nil)
	createItems(t, e)
	tx := e.Begin()
	_ = tx.Insert("items", itemRow(1, "first", 1))
	mustCommit(t, tx)

	tx2 := e.Begin()
	if ok, err := tx2.Delete("items", pk(1)); err != nil || !ok {
		t.Fatal("delete failed")
	}
	// The old index entry is removed only at commit, so the reinsert
	// within the same transaction hits the unique check: accepted
	// behaviour is a clean ErrDuplicateKey (retry after commit works).
	err := tx2.Insert("items", itemRow(1, "second", 2))
	if err != nil && err != ErrDuplicateKey {
		t.Fatalf("unexpected error %v", err)
	}
	mustCommit(t, tx2)

	tx3 := e.Begin()
	if err == ErrDuplicateKey {
		if err := tx3.Insert("items", itemRow(1, "second", 2)); err != nil {
			t.Fatalf("reinsert after commit: %v", err)
		}
	}
	rw, ok, _ := tx3.Get("items", pk(1))
	if !ok || rw[1].Str() != "second" {
		t.Fatalf("final row: %v %v", rw, ok)
	}
	mustCommit(t, tx3)
}

// TestStatsSnapshotConsistency: snapshot fields are internally coherent.
func TestStatsSnapshotConsistency(t *testing.T) {
	e := openEngine(t, nil)
	createItems(t, e)
	tx := e.Begin()
	for i := int64(1); i <= 25; i++ {
		_ = tx.Insert("items", itemRow(i, "s", i))
	}
	mustCommit(t, tx)
	s := e.Stats()
	if s.IMRSRows != 25 {
		t.Fatalf("IMRSRows = %d", s.IMRSRows)
	}
	var rows int64
	for _, p := range s.Partitions {
		rows += p.IMRSRows
	}
	if rows != s.IMRSRows {
		t.Fatalf("partition rows %d != total %d", rows, s.IMRSRows)
	}
	if s.IMRSUsedBytes <= 0 || s.IMRSUsedBytes > s.IMRSCapacity {
		t.Fatalf("used bytes out of range: %d", s.IMRSUsedBytes)
	}
	if hr := s.IMRSHitRate(); hr <= 0 || hr > 1 {
		t.Fatalf("hit rate out of range: %v", hr)
	}
}

// TestRowTooLargeRejected: oversized rows are rejected cleanly on insert
// and on update growth, in both stores.
func TestRowTooLargeRejected(t *testing.T) {
	e := openEngine(t, nil)
	createItems(t, e)
	tx := e.Begin()
	defer tx.Abort()
	huge := strings.Repeat("z", 9000)
	if err := tx.Insert("items", itemRow(1, huge, 1)); err != ErrRowTooLarge {
		t.Fatalf("insert err = %v, want ErrRowTooLarge", err)
	}
	if err := tx.Insert("items", itemRow(1, "small", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Update("items", pk(1), func(r row.Row) (row.Row, error) {
		r[1] = row.String(huge)
		return r, nil
	}); err != ErrRowTooLarge {
		t.Fatalf("update err = %v, want ErrRowTooLarge", err)
	}
	// The row survived the rejected update.
	rw, ok, err := tx.Get("items", pk(1))
	if err != nil || !ok || rw[1].Str() != "small" {
		t.Fatalf("row damaged by rejected update: %v %v %v", rw, ok, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}
