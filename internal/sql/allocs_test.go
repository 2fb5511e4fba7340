//go:build !race

package sql

import (
	"fmt"
	"testing"

	"repro/btrim"
)

// TestIndexSelectAllocsPerResult gates the projected read path from
// the prepared statement down: an index SELECT of one int column
// decodes only that column of each row, straight into the result, so
// returning 100 rows allocates what returning 10 does (±1), although
// every row carries a string payload the projection skips. Not under
// the race detector, whose instrumentation allocates.
func TestIndexSelectAllocsPerResult(t *testing.T) {
	db, err := btrim.Open(btrim.Config{IMRSCacheBytes: 16 << 20, DisableILM: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	s := NewSession(Wrap(db))
	defer s.Close()
	mustExec(t, s, "CREATE TABLE lines (w INT, o INT, n INT, item INT, info STRING) KEY (w, o, n)")
	for o, n := range map[int]int{1: 10, 2: 100} {
		for i := 0; i < n; i++ {
			mustExec(t, s, fmt.Sprintf("INSERT INTO lines VALUES (1, %d, %d, %d, 'an info string the projection skips')", o, i, 1000+i))
		}
	}
	if _, err := s.Prepare("items", "SELECT item FROM lines WHERE w = ? AND o = ?"); err != nil {
		t.Fatal(err)
	}
	allocs := func(o int64, want int) float64 {
		args := []btrim.Value{btrim.Int64(1), btrim.Int64(o)}
		run := func() {
			res, err := s.ExecPrepared("items", args)
			if err != nil || len(res.Rows) != want {
				t.Fatalf("select of order %d: %v rows, %v", o, res, err)
			}
		}
		for i := 0; i < 50; i++ {
			run()
		}
		return testing.AllocsPerRun(200, run)
	}
	a10, a100 := allocs(1, 10), allocs(2, 100)
	t.Logf("index SELECT of one int column: 10 rows %.1f allocs, 100 rows %.1f", a10, a100)
	if a100 > a10+1 {
		t.Fatalf("100-row SELECT allocates %.1f, 10-row %.1f: the read path allocates per row", a100, a10)
	}
}

// TestPointUpdateAllocs gates the column write path from the prepared
// statement down: a point UPDATE of two numeric columns of a row that
// carries a long string reads and writes those columns only, through
// the plan's bound callbacks (no closure or value slice per statement),
// and logs a delta of them. Measured 12.0; the whole-row Update path
// it replaces measured 19.0. Not under the race detector.
func TestPointUpdateAllocs(t *testing.T) {
	db, err := btrim.Open(btrim.Config{IMRSCacheBytes: 16 << 20, DisableILM: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	s := NewSession(Wrap(db))
	defer s.Close()
	mustExec(t, s, "CREATE TABLE stock (w INT, i INT, qty INT, ytd FLOAT, data STRING) KEY (w, i)",
		"INSERT INTO stock VALUES (1, 7, 50, 0.0, 'a data string as long as a stock row carries, which the update never reads')")
	if _, err := s.Prepare("upd", "UPDATE stock SET qty = qty - ?, ytd = ytd + ? WHERE w = ? AND i = ?"); err != nil {
		t.Fatal(err)
	}
	args := []btrim.Value{btrim.Int64(1), btrim.Float64(2.5), btrim.Int64(1), btrim.Int64(7)}
	run := func() {
		res, err := s.ExecPrepared("upd", args)
		if err != nil || res.Affected != 1 {
			t.Fatalf("update: %v, %v", res, err)
		}
	}
	for i := 0; i < 50; i++ {
		run()
	}
	avg := testing.AllocsPerRun(200, run)
	t.Logf("prepared point UPDATE of two numeric columns: %.1f allocs (budget %d)", avg, pointUpdateAllocBudget)
	if avg > pointUpdateAllocBudget {
		t.Fatalf("point UPDATE allocates %.1f, budget %d: the column write path regressed", avg, pointUpdateAllocBudget)
	}
}

const pointUpdateAllocBudget = 14
