package core

import (
	"fmt"
	"testing"

	"repro/internal/row"
)

// Per-operation heap-allocation budgets for the two hottest DML shapes.
// The budgets are deliberately a little above the measured steady state
// (see the comments on each) so scheduler noise doesn't flake the test,
// but far below the pre-pooling numbers — a regression that reintroduces
// per-transaction scaffolding allocation or an encode-then-copy row path
// blows straight through them.
//
// Measured with the pooled scratch + encode-into-fragment path; the
// irreducible remainder is the Txn header, the decoded row and its
// string payloads, closure captures, and the WAL/commit machinery.
// For reference, the pre-pooling path (deleted with its selector)
// measured 6.0 reads and 37.0 updates on the same workload; the pooled
// path measured 3.0 and 28.0, and with lock entries recycled and
// frames keeping their page it measures 3.0 and 15.0, and with the WAL
// keeping its pending buffer across flushes 3.0 and 13.0.
const (
	pointReadAllocBudget = 5
	updateAllocBudget    = 20
)

func allocBudgetEngine(t *testing.T) *Engine {
	t.Helper()
	e := openEngine(t, func(cfg *Config) {
		// Quiesce everything that allocates off the measured goroutine:
		// no packer and no background checkpoints. AllocsPerRun reads the
		// global allocation counter, so background allocators would be
		// charged to the op under test. A lone committer leads its own
		// group-commit round, so the commit path is measured as it runs.
		cfg.ILMEnabled = false
		cfg.CheckpointEvery = 0
	})
	return e
}

func TestPointReadAllocBudget(t *testing.T) {
	e := allocBudgetEngine(t)
	createItems(t, e)

	tx := e.Begin()
	if err := tx.Insert("items", itemRow(1, "widget", 5)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	// Warm the pools (scratch, wal encode buffers, snapshot slots).
	for i := 0; i < 100; i++ {
		tx := e.Begin()
		if _, _, err := tx.Get("items", pk(1)); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}

	avg := testing.AllocsPerRun(500, func() {
		tx := e.Begin()
		rw, ok, err := tx.Get("items", pk(1))
		if err != nil || !ok {
			t.Fatalf("get: %v %v", ok, err)
		}
		if rw[2].Int() != 5 {
			t.Fatal("wrong row")
		}
		mustCommit(t, tx)
	})
	t.Logf("point read: %.1f allocs/op (budget %d)", avg, pointReadAllocBudget)
	if avg > pointReadAllocBudget {
		t.Fatalf("point read allocates %.1f/op, budget %d — the hot read path regressed", avg, pointReadAllocBudget)
	}
}

func TestUpdateAllocBudget(t *testing.T) {
	e := allocBudgetEngine(t)
	createItems(t, e)

	tx := e.Begin()
	if err := tx.Insert("items", itemRow(1, "widget", 5)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	bump := func(r row.Row) (row.Row, error) {
		r[2] = row.Int64(r[2].Int() + 1)
		return r, nil
	}
	for i := 0; i < 100; i++ {
		tx := e.Begin()
		if _, err := tx.Update("items", pk(1), bump); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}

	avg := testing.AllocsPerRun(500, func() {
		tx := e.Begin()
		ok, err := tx.Update("items", pk(1), bump)
		if err != nil || !ok {
			t.Fatalf("update: %v %v", ok, err)
		}
		mustCommit(t, tx)
	})
	t.Logf("single-row update: %.1f allocs/op (budget %d)", avg, updateAllocBudget)
	if avg > updateAllocBudget {
		t.Fatalf("single-row update allocates %.1f/op, budget %d — the hot write path regressed", avg, updateAllocBudget)
	}
}

// updateColsAllocBudget bounds one transaction updating the int
// column of one IMRS row through UpdateCols: the new version is the old
// image with the column spliced in, and the log record carries that
// column only. Measured 7.0; Update(mutate) on the same row
// measures 13.0 (the decoded row, its clone, the probe key).
const updateColsAllocBudget = 9

func TestUpdateColsAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budget is meaningless")
	}
	e := allocBudgetEngine(t)
	createItems(t, e)
	tx := e.Begin()
	if err := tx.Insert("items", itemRow(1, "widget", 5)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	bump := func(v row.Row) error {
		v[0] = row.Int64(v[0].Int() + 1)
		return nil
	}
	update := func() {
		tx := e.Begin()
		if ok, err := tx.UpdateCols("items", pk(1), []int{2}, bump); err != nil || !ok {
			t.Fatalf("update: %v %v", ok, err)
		}
		mustCommit(t, tx)
	}
	for i := 0; i < 100; i++ {
		update()
	}
	avg := testing.AllocsPerRun(500, update)
	t.Logf("single-column update: %.1f allocs/op (budget %d)", avg, updateColsAllocBudget)
	if avg > updateColsAllocBudget {
		t.Fatalf("single-column update allocates %.1f/op, budget %d — the column write path regressed", avg, updateColsAllocBudget)
	}
}

// lookupAllAllocBudget bounds one transaction running a 10-row
// LookupAll on a non-unique index whose leaf holds 200 more keys past
// the prefix. Measured 23.0: per row the one copy of its string
// payload, plus the transaction, the row LookupCols decodes into, the
// scan's arena and batch, and the growing result slice and row arena
// (five and four arrays for 10 rows). The prefix is re-checked on the
// row image, so nothing else is per row.
const lookupAllAllocBudget = 23

func TestLookupAllAllocBudget(t *testing.T) {
	if raceEnabled {
		// The budget is the exact steady state, which the race detector's
		// randomly dropping sync.Pool does not keep; make test-allocs
		// runs it without.
		t.Skip("race-detector instrumentation allocates; budget is meaningless")
	}
	e := allocBudgetEngine(t)
	createItems(t, e)

	tx := e.Begin()
	for i := int64(0); i < 210; i++ {
		name := fmt.Sprintf("zz-%03d", i) // sorts after the prefix
		if i < 10 {
			name = "target"
		}
		if err := tx.Insert("items", itemRow(i, name, i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	lookup := func() {
		tx := e.Begin()
		rows, err := tx.LookupAll("items", "items_name", []row.Value{row.String("target")})
		if err != nil || len(rows) != 10 {
			t.Fatalf("lookup: %d rows, %v", len(rows), err)
		}
		mustCommit(t, tx)
	}
	for i := 0; i < 100; i++ {
		lookup()
	}
	avg := testing.AllocsPerRun(500, lookup)
	t.Logf("10-row LookupAll: %.1f allocs/op (budget %d)", avg, lookupAllAllocBudget)
	if avg > lookupAllAllocBudget {
		t.Fatalf("10-row LookupAll allocates %.1f/op, budget %d — the index read path allocates per key again", avg, lookupAllAllocBudget)
	}
}
