package core

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/row"
)

func testSchema() *row.Schema {
	return row.MustSchema(
		row.Column{Name: "id", Kind: row.KindInt64},
		row.Column{Name: "name", Kind: row.KindString},
		row.Column{Name: "qty", Kind: row.KindInt64},
	)
}

func openEngine(t *testing.T, mut func(*Config)) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.IMRSCacheBytes = 8 << 20
	cfg.BufferPoolPages = 256
	if mut != nil {
		mut(&cfg)
	}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// A failed test may still hold a transaction, whose checkpoint
		// lock Close's final checkpoint would wait for: halt instead.
		if t.Failed() {
			_ = e.Halt()
			return
		}
		_ = e.Close()
	})
	return e
}

func createItems(t *testing.T, e *Engine) {
	t.Helper()
	_, err := e.CreateTable("items", testSchema(), []string{"id"}, catalog.PartitionSpec{},
		[]catalog.IndexSpec{{Name: "items_name", Cols: []string{"name"}, Unique: false}})
	if err != nil {
		t.Fatal(err)
	}
}

func itemRow(id int64, name string, qty int64) row.Row {
	return row.Row{row.Int64(id), row.String(name), row.Int64(qty)}
}

func pk(id int64) []row.Value { return []row.Value{row.Int64(id)} }

func mustCommit(t *testing.T, tx *Txn) {
	t.Helper()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertGetCommit(t *testing.T) {
	e := openEngine(t, nil)
	createItems(t, e)

	tx := e.Begin()
	if err := tx.Insert("items", itemRow(1, "widget", 5)); err != nil {
		t.Fatal(err)
	}
	// Own uncommitted row is visible to self.
	rw, ok, err := tx.Get("items", pk(1))
	if err != nil || !ok {
		t.Fatalf("self-read: %v %v", ok, err)
	}
	if rw[1].Str() != "widget" {
		t.Fatalf("self-read row = %v", rw)
	}
	// Invisible to others pre-commit.
	tx2 := e.Begin()
	if _, ok, _ := tx2.Get("items", pk(1)); ok {
		t.Fatal("uncommitted row visible to another txn")
	}
	mustCommit(t, tx2)
	mustCommit(t, tx)

	tx3 := e.Begin()
	rw, ok, err = tx3.Get("items", pk(1))
	if err != nil || !ok || rw[2].Int() != 5 {
		t.Fatalf("post-commit read: %v %v %v", rw, ok, err)
	}
	mustCommit(t, tx3)
}

func TestAbortUndoesEverything(t *testing.T) {
	e := openEngine(t, nil)
	createItems(t, e)

	tx := e.Begin()
	if err := tx.Insert("items", itemRow(1, "a", 1)); err != nil {
		t.Fatal(err)
	}
	tx.Abort()

	tx2 := e.Begin()
	if _, ok, _ := tx2.Get("items", pk(1)); ok {
		t.Fatal("aborted insert visible")
	}
	// The key must be reusable.
	if err := tx2.Insert("items", itemRow(1, "b", 2)); err != nil {
		t.Fatalf("reinsert after abort: %v", err)
	}
	mustCommit(t, tx2)
	if e.Store().Rows() != 1 {
		t.Fatalf("IMRS rows = %d, want 1", e.Store().Rows())
	}
}

func TestUpdateVersioning(t *testing.T) {
	e := openEngine(t, nil)
	createItems(t, e)

	tx := e.Begin()
	if err := tx.Insert("items", itemRow(1, "a", 1)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	// Snapshot before the update must keep seeing qty=1.
	reader := e.Begin()

	tx2 := e.Begin()
	ok, err := tx2.Update("items", pk(1), func(r row.Row) (row.Row, error) {
		r[2] = row.Int64(99)
		return r, nil
	})
	if err != nil || !ok {
		t.Fatalf("update: %v %v", ok, err)
	}
	mustCommit(t, tx2)

	rw, ok, err := reader.Get("items", pk(1))
	if err != nil || !ok || rw[2].Int() != 1 {
		t.Fatalf("snapshot read after concurrent update: %v %v %v", rw, ok, err)
	}
	mustCommit(t, reader)

	tx3 := e.Begin()
	rw, _, _ = tx3.Get("items", pk(1))
	if rw[2].Int() != 99 {
		t.Fatalf("new snapshot sees %v, want 99", rw[2])
	}
	mustCommit(t, tx3)
}

func TestUpdateAbortRestores(t *testing.T) {
	e := openEngine(t, nil)
	createItems(t, e)
	tx := e.Begin()
	_ = tx.Insert("items", itemRow(1, "a", 1))
	mustCommit(t, tx)

	tx2 := e.Begin()
	if _, err := tx2.Update("items", pk(1), func(r row.Row) (row.Row, error) {
		r[2] = row.Int64(50)
		return r, nil
	}); err != nil {
		t.Fatal(err)
	}
	tx2.Abort()

	tx3 := e.Begin()
	rw, _, _ := tx3.Get("items", pk(1))
	if rw[2].Int() != 1 {
		t.Fatalf("abort did not restore: %v", rw[2])
	}
	mustCommit(t, tx3)
}

func TestDelete(t *testing.T) {
	e := openEngine(t, nil)
	createItems(t, e)
	tx := e.Begin()
	_ = tx.Insert("items", itemRow(1, "a", 1))
	mustCommit(t, tx)

	tx2 := e.Begin()
	ok, err := tx2.Delete("items", pk(1))
	if err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	mustCommit(t, tx2)

	tx3 := e.Begin()
	if _, ok, _ := tx3.Get("items", pk(1)); ok {
		t.Fatal("deleted row visible")
	}
	// Key reusable after delete.
	if err := tx3.Insert("items", itemRow(1, "again", 7)); err != nil {
		t.Fatalf("reinsert after delete: %v", err)
	}
	mustCommit(t, tx3)
}

func TestDuplicateKeyRejected(t *testing.T) {
	e := openEngine(t, nil)
	createItems(t, e)
	tx := e.Begin()
	_ = tx.Insert("items", itemRow(1, "a", 1))
	mustCommit(t, tx)

	tx2 := e.Begin()
	if err := tx2.Insert("items", itemRow(1, "dup", 2)); err != ErrDuplicateKey {
		t.Fatalf("err = %v, want ErrDuplicateKey", err)
	}
	// Transaction remains usable after the failed statement.
	if err := tx2.Insert("items", itemRow(2, "ok", 2)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx2)
}

func TestPKChangeRejected(t *testing.T) {
	e := openEngine(t, nil)
	createItems(t, e)
	tx := e.Begin()
	_ = tx.Insert("items", itemRow(1, "a", 1))
	mustCommit(t, tx)

	tx2 := e.Begin()
	_, err := tx2.Update("items", pk(1), func(r row.Row) (row.Row, error) {
		r[0] = row.Int64(2)
		return r, nil
	})
	if err != ErrPKChange {
		t.Fatalf("err = %v, want ErrPKChange", err)
	}
	tx2.Abort()
}

func TestPageStorePathWhenIMRSDisabled(t *testing.T) {
	e := openEngine(t, nil)
	createItems(t, e)
	// Pin the partition out of the IMRS: all ISUD on the page store.
	prt := e.table0(t, "items")
	prt.ilm.Pin(false)

	tx := e.Begin()
	for i := int64(1); i <= 50; i++ {
		if err := tx.Insert("items", itemRow(i, fmt.Sprintf("n%d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	if e.Store().Rows() != 0 {
		t.Fatalf("IMRS rows = %d, want 0 (disabled)", e.Store().Rows())
	}

	tx2 := e.Begin()
	rw, ok, err := tx2.Get("items", pk(25))
	if err != nil || !ok || rw[2].Int() != 25 {
		t.Fatalf("page-store get: %v %v %v", rw, ok, err)
	}
	// Update in place on the page store.
	if _, err := tx2.Update("items", pk(25), func(r row.Row) (row.Row, error) {
		r[2] = row.Int64(250)
		return r, nil
	}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx2)

	tx3 := e.Begin()
	rw, _, _ = tx3.Get("items", pk(25))
	if rw[2].Int() != 250 {
		t.Fatalf("page update lost: %v", rw[2])
	}
	ok, err = tx3.Delete("items", pk(25))
	if err != nil || !ok {
		t.Fatal("page delete failed")
	}
	mustCommit(t, tx3)
	if e.Store().Rows() != 0 {
		t.Fatal("page-store ops leaked into the IMRS")
	}
}

// table0 returns the single-partition runtime of a table.
func (e *Engine) table0(t *testing.T, name string) *partRT {
	t.Helper()
	rt, err := e.table(name)
	if err != nil {
		t.Fatal(err)
	}
	return rt.parts[0]
}

func TestMigrationOnUpdate(t *testing.T) {
	e := openEngine(t, nil)
	createItems(t, e)
	prt := e.table0(t, "items")
	prt.ilm.Pin(false) // start on the page store

	tx := e.Begin()
	_ = tx.Insert("items", itemRow(1, "a", 1))
	mustCommit(t, tx)

	prt.ilm.Pin(true) // re-enable the IMRS

	tx2 := e.Begin()
	ok, err := tx2.Update("items", pk(1), func(r row.Row) (row.Row, error) {
		r[2] = row.Int64(42)
		return r, nil
	})
	if err != nil || !ok {
		t.Fatal(err)
	}
	mustCommit(t, tx2)

	if e.Store().Rows() != 1 {
		t.Fatalf("row not migrated: IMRS rows = %d", e.Store().Rows())
	}
	snap := e.Stats()
	if snap.Partitions[0].Migrations != 1 {
		t.Fatalf("migrations = %d, want 1", snap.Partitions[0].Migrations)
	}
	tx3 := e.Begin()
	rw, ok, _ := tx3.Get("items", pk(1))
	if !ok || rw[2].Int() != 42 {
		t.Fatalf("migrated read: %v %v", rw, ok)
	}
	mustCommit(t, tx3)
}

func TestCachingOnSelect(t *testing.T) {
	e := openEngine(t, nil)
	createItems(t, e)
	prt := e.table0(t, "items")
	prt.ilm.Pin(false)
	tx := e.Begin()
	_ = tx.Insert("items", itemRow(1, "a", 1))
	mustCommit(t, tx)
	prt.ilm.Pin(true)

	tx2 := e.Begin()
	_, ok, err := tx2.Get("items", pk(1))
	if err != nil || !ok {
		t.Fatal(err)
	}
	mustCommit(t, tx2)

	if e.Store().Rows() != 1 {
		t.Fatalf("select did not cache the row: IMRS rows = %d", e.Store().Rows())
	}
	snap := e.Stats()
	if snap.Partitions[0].Cachings != 1 {
		t.Fatalf("cachings = %d, want 1", snap.Partitions[0].Cachings)
	}
	// Second read hits the IMRS.
	tx3 := e.Begin()
	_, _, _ = tx3.Get("items", pk(1))
	mustCommit(t, tx3)
	snap = e.Stats()
	if snap.Partitions[0].IMRSSelects == 0 {
		t.Fatal("cached row not read from IMRS")
	}
}

func TestScanTableBothStores(t *testing.T) {
	e := openEngine(t, nil)
	createItems(t, e)
	prt := e.table0(t, "items")

	// Half on the page store, half in the IMRS.
	prt.ilm.Pin(false)
	tx := e.Begin()
	for i := int64(1); i <= 10; i++ {
		_ = tx.Insert("items", itemRow(i, "page", i))
	}
	mustCommit(t, tx)
	prt.ilm.Pin(true)
	tx = e.Begin()
	for i := int64(11); i <= 20; i++ {
		_ = tx.Insert("items", itemRow(i, "imrs", i))
	}
	mustCommit(t, tx)

	seen := map[int64]bool{}
	tx2 := e.Begin()
	err := tx2.ScanTable("items", func(r row.Row) bool {
		seen[r[0].Int()] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx2)
	if len(seen) != 20 {
		t.Fatalf("scan saw %d rows, want 20", len(seen))
	}
}

func TestIndexScanAndLookupAll(t *testing.T) {
	e := openEngine(t, nil)
	createItems(t, e)
	tx := e.Begin()
	names := []string{"alpha", "beta", "alpha", "gamma", "beta", "alpha"}
	for i, n := range names {
		if err := tx.Insert("items", itemRow(int64(i+1), n, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	tx2 := e.Begin()
	rows, err := tx2.LookupAll("items", "items_name", []row.Value{row.String("alpha")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("LookupAll(alpha) = %d rows, want 3", len(rows))
	}
	var order []string
	err = tx2.IndexScan("items", "items_name", nil, func(r row.Row) bool {
		order = append(order, r[1].Str())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 6 {
		t.Fatalf("IndexScan saw %d rows", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i-1] > order[i] {
			t.Fatalf("IndexScan out of order: %v", order)
		}
	}
	mustCommit(t, tx2)
}

func TestSecondaryIndexKeyChange(t *testing.T) {
	e := openEngine(t, nil)
	createItems(t, e)
	tx := e.Begin()
	_ = tx.Insert("items", itemRow(1, "old", 1))
	mustCommit(t, tx)

	tx2 := e.Begin()
	if _, err := tx2.Update("items", pk(1), func(r row.Row) (row.Row, error) {
		r[1] = row.String("new")
		return r, nil
	}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx2)

	tx3 := e.Begin()
	rows, _ := tx3.LookupAll("items", "items_name", []row.Value{row.String("old")})
	if len(rows) != 0 {
		t.Fatalf("old key still resolves: %d", len(rows))
	}
	rows, _ = tx3.LookupAll("items", "items_name", []row.Value{row.String("new")})
	if len(rows) != 1 {
		t.Fatalf("new key missing: %d", len(rows))
	}
	mustCommit(t, tx3)
}

func TestILMOffModePinsEverythingInMemory(t *testing.T) {
	e := openEngine(t, func(c *Config) { c.ILMEnabled = false })
	createItems(t, e)
	tx := e.Begin()
	for i := int64(1); i <= 100; i++ {
		if err := tx.Insert("items", itemRow(i, "x", i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	if e.Store().Rows() != 100 {
		t.Fatalf("ILM_OFF: IMRS rows = %d, want 100", e.Store().Rows())
	}
	if e.Stats().RowsPacked != 0 {
		t.Fatal("ILM_OFF must not pack")
	}
}
