package sql

import (
	"errors"
	"fmt"
	"testing"

	"repro/btrim"
)

// openEngine opens an in-memory database of the given shard count.
func openEngine(t *testing.T, shards int) Engine {
	t.Helper()
	db, err := btrim.Open(btrim.Config{IMRSCacheBytes: 16 << 20, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	return Wrap(db)
}

// forShards runs fn over a one-shard and a three-shard database: the
// executor must behave the same whether a statement touches one engine
// or fans out over several.
func forShards(t *testing.T, fn func(t *testing.T, eng Engine)) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { fn(t, openEngine(t, n)) })
	}
}

func mustExec(t *testing.T, s *Session, stmts ...string) *Result {
	t.Helper()
	var last *Result
	for _, stmt := range stmts {
		res, err := s.Exec(stmt)
		if err != nil {
			t.Fatalf("exec %q: %v", stmt, err)
		}
		last = res
	}
	return last
}

// testCRUD runs the full statement suite against an engine.
func testCRUD(t *testing.T, eng Engine) {
	s := NewSession(eng)
	defer s.Close()
	mustExec(t, s,
		`CREATE TABLE users (id INT, name STRING, score FLOAT, PRIMARY KEY (id))`,
		`INSERT INTO users VALUES (1, 'ada', 99.5), (2, 'grace', 88), (3, 'edsger', -4)`,
	)

	// Point lookup routes to Get.
	res := mustExec(t, s, `SELECT name, score FROM users WHERE id = 1`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "ada" || res.Rows[0][1].Float() != 99.5 {
		t.Fatalf("point select = %+v", res.Rows)
	}
	if len(res.Cols) != 2 || res.Cols[0] != "name" {
		t.Fatalf("cols = %v", res.Cols)
	}

	// Range predicate routes to the vectorized scan with projection.
	res = mustExec(t, s, `SELECT name FROM users WHERE score >= 0 AND id < 3`)
	if len(res.Rows) != 2 {
		t.Fatalf("range select = %+v", res.Rows)
	}
	names := map[string]bool{}
	for _, r := range res.Rows {
		names[r[0].Str()] = true
	}
	if !names["ada"] || !names["grace"] {
		t.Fatalf("range select names = %v", names)
	}

	// Negative literals and != on strings.
	res = mustExec(t, s, `SELECT id FROM users WHERE score = -4`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 3 {
		t.Fatalf("negative select = %+v", res.Rows)
	}
	res = mustExec(t, s, `SELECT id FROM users WHERE name != 'ada'`)
	if len(res.Rows) != 2 {
		t.Fatalf("!= select = %+v", res.Rows)
	}

	// LIMIT stops the scan early.
	res = mustExec(t, s, `SELECT id FROM users WHERE id >= 1 LIMIT 2`)
	if len(res.Rows) != 2 {
		t.Fatalf("limit select = %+v", res.Rows)
	}

	// Point UPDATE with literal and arithmetic assignments.
	res = mustExec(t, s, `UPDATE users SET score = score + 0.5, name = 'ada l' WHERE id = 1`)
	if res.Affected != 1 {
		t.Fatalf("update affected = %d", res.Affected)
	}
	res = mustExec(t, s, `SELECT name, score FROM users WHERE id = 1`)
	if res.Rows[0][0].Str() != "ada l" || res.Rows[0][1].Float() != 100 {
		t.Fatalf("after update = %+v", res.Rows)
	}

	// Scan UPDATE over a range predicate.
	res = mustExec(t, s, `UPDATE users SET score = 0 WHERE score < 0`)
	if res.Affected != 1 {
		t.Fatalf("scan update affected = %d", res.Affected)
	}

	// Point DELETE and scan DELETE.
	res = mustExec(t, s, `DELETE FROM users WHERE id = 2`)
	if res.Affected != 1 {
		t.Fatalf("point delete affected = %d", res.Affected)
	}
	res = mustExec(t, s, `DELETE FROM users WHERE score >= 0`)
	if res.Affected != 2 {
		t.Fatalf("scan delete affected = %d", res.Affected)
	}
	res = mustExec(t, s, `SELECT * FROM users`)
	if len(res.Rows) != 0 {
		t.Fatalf("rows remain: %+v", res.Rows)
	}

	// SHOW TABLES sees the catalog.
	res = mustExec(t, s, `SHOW TABLES`)
	found := false
	for _, r := range res.Rows {
		if r[0].Str() == "users" {
			found = true
		}
	}
	if !found {
		t.Fatalf("show tables = %+v", res.Rows)
	}
}

func TestExecCRUD(t *testing.T) { forShards(t, testCRUD) }

func TestExecCompositeKeyRouting(t *testing.T) {
	s := NewSession(openEngine(t, 1))
	defer s.Close()
	mustExec(t, s,
		`CREATE TABLE kv (region STRING, id INT, v STRING, PRIMARY KEY (region, id))`,
		`INSERT INTO kv VALUES ('eu', 1, 'one'), ('us', 1, 'uno'), ('eu', 2, 'two')`,
	)
	// Full PK equality (order-independent) is a point lookup.
	res := mustExec(t, s, `SELECT v FROM kv WHERE id = 1 AND region = 'eu'`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "one" {
		t.Fatalf("composite point = %+v", res.Rows)
	}
	// PK prefix only: falls back to the scan path.
	res = mustExec(t, s, `SELECT v FROM kv WHERE region = 'eu'`)
	if len(res.Rows) != 2 {
		t.Fatalf("prefix scan = %+v", res.Rows)
	}
	// Point with residual predicate that fails.
	res = mustExec(t, s, `SELECT v FROM kv WHERE id = 1 AND region = 'eu' AND v = 'nope'`)
	if len(res.Rows) != 0 {
		t.Fatalf("residual = %+v", res.Rows)
	}
}

func TestExecInsertColumnList(t *testing.T) {
	s := NewSession(openEngine(t, 1))
	defer s.Close()
	mustExec(t, s,
		`CREATE TABLE t (a INT, b STRING, PRIMARY KEY (a))`,
		`INSERT INTO t (b, a) VALUES ('reordered', 7)`,
	)
	res := mustExec(t, s, `SELECT b FROM t WHERE a = 7`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "reordered" {
		t.Fatalf("reordered insert = %+v", res.Rows)
	}
	if _, err := s.Exec(`INSERT INTO t (a) VALUES (8)`); err == nil {
		t.Fatal("partial column list accepted")
	}
	if _, err := s.Exec(`INSERT INTO t (a, a) VALUES (8, 9)`); err == nil {
		t.Fatal("duplicate column list accepted")
	}
}

func TestExecTypeChecking(t *testing.T) {
	s := NewSession(openEngine(t, 1))
	defer s.Close()
	mustExec(t, s, `CREATE TABLE t (a INT, b STRING, PRIMARY KEY (a))`)
	for _, bad := range []string{
		`INSERT INTO t VALUES ('x', 'y')`,    // string into int
		`INSERT INTO t VALUES (1.5, 'y')`,    // float into int
		`INSERT INTO t VALUES (1, 2)`,        // int into string
		`SELECT * FROM t WHERE a = 'x'`,      // string pred on int col
		`SELECT * FROM t WHERE missing = 1`,  // unknown column
		`SELECT missing FROM t`,              // unknown projection
		`SELECT * FROM missing`,              // unknown table
		`UPDATE t SET a = 9 WHERE a = 1`,     // PK column update
		`UPDATE t SET b = b + 1 WHERE a = 1`, // arithmetic on string
	} {
		if _, err := s.Exec(bad); err == nil {
			t.Errorf("%q should fail", bad)
		}
	}
	var terr *TableError
	_, err := s.Exec(`SELECT * FROM missing`)
	if !errors.As(err, &terr) || terr.Table != "missing" {
		t.Fatalf("want TableError, got %v", err)
	}
}

func TestSessionTxnStateMachine(t *testing.T) {
	s := NewSession(openEngine(t, 1))
	defer s.Close()
	mustExec(t, s, `CREATE TABLE t (a INT, b INT, PRIMARY KEY (a))`)

	// Explicit txn: rolled-back work is invisible.
	mustExec(t, s, `BEGIN`, `INSERT INTO t VALUES (1, 0)`, `ROLLBACK`)
	if res := mustExec(t, s, `SELECT * FROM t`); len(res.Rows) != 0 {
		t.Fatalf("rollback leaked rows: %+v", res.Rows)
	}

	// Explicit txn: committed work persists.
	mustExec(t, s, `BEGIN`, `INSERT INTO t VALUES (1, 0)`, `COMMIT`)
	if res := mustExec(t, s, `SELECT * FROM t`); len(res.Rows) != 1 {
		t.Fatalf("commit lost rows: %+v", res.Rows)
	}

	// BEGIN inside a txn.
	mustExec(t, s, `BEGIN`)
	if _, err := s.Exec(`BEGIN`); !errors.Is(err, ErrTxnOpen) {
		t.Fatalf("nested BEGIN: %v", err)
	}
	mustExec(t, s, `ROLLBACK`)

	// COMMIT/ROLLBACK with no txn.
	if _, err := s.Exec(`COMMIT`); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("stray COMMIT: %v", err)
	}
	if _, err := s.Exec(`ROLLBACK`); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("stray ROLLBACK: %v", err)
	}

	// DDL inside a txn is rejected and aborts the txn.
	mustExec(t, s, `BEGIN`)
	if _, err := s.Exec(`CREATE TABLE u (a INT, PRIMARY KEY (a))`); !errors.Is(err, ErrDDLInTxn) {
		t.Fatalf("DDL in txn: %v", err)
	}
	if !s.Aborted() {
		t.Fatal("session not aborted after failed DDL")
	}
	mustExec(t, s, `ROLLBACK`)
}

// TestSessionAbortedState is the error-path audit: a failed statement
// inside an explicit transaction must leave the session in a defined
// aborted state — earlier statements rolled back, later statements
// rejected with the typed ErrTxnAborted — never half-applied.
func TestSessionAbortedState(t *testing.T) {
	s := NewSession(openEngine(t, 1))
	defer s.Close()
	mustExec(t, s,
		`CREATE TABLE t (a INT, b INT, PRIMARY KEY (a))`,
		`INSERT INTO t VALUES (1, 10)`,
	)

	mustExec(t, s, `BEGIN`, `UPDATE t SET b = 99 WHERE a = 1`, `INSERT INTO t VALUES (2, 20)`)
	// Duplicate key fails the statement and aborts the whole txn.
	if _, err := s.Exec(`INSERT INTO t VALUES (1, 0)`); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if !s.Aborted() || !s.InTxn() {
		t.Fatalf("aborted=%v inTxn=%v after failed statement", s.Aborted(), s.InTxn())
	}
	// Every later statement is rejected with the typed error...
	for _, stmt := range []string{`SELECT * FROM t`, `INSERT INTO t VALUES (3, 30)`, `BEGIN`} {
		if _, err := s.Exec(stmt); !errors.Is(err, ErrTxnAborted) {
			t.Fatalf("%q in aborted txn: %v", stmt, err)
		}
	}
	// ...including COMMIT, which ends the block without making anything
	// durable.
	if _, err := s.Exec(`COMMIT`); !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("COMMIT of aborted txn: %v", err)
	}
	if s.InTxn() {
		t.Fatal("COMMIT did not end the aborted block")
	}

	// Nothing from the aborted txn is visible: b kept its old value, row
	// 2 never materialized.
	res := mustExec(t, s, `SELECT a, b FROM t WHERE a >= 0`)
	if len(res.Rows) != 1 || res.Rows[0][1].Int() != 10 {
		t.Fatalf("aborted txn leaked writes: %+v", res.Rows)
	}

	// Same flow, ended by ROLLBACK.
	mustExec(t, s, `BEGIN`)
	if _, err := s.Exec(`INSERT INTO t VALUES (1, 0)`); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	mustExec(t, s, `ROLLBACK`) // clears the aborted state
	mustExec(t, s, `INSERT INTO t VALUES (4, 40)`)

	// A parse error inside a txn also aborts it (defined state beats
	// convenience).
	mustExec(t, s, `BEGIN`)
	if _, err := s.Exec(`SELEKT * FROM t`); err == nil {
		t.Fatal("parse error accepted")
	}
	if !s.Aborted() {
		t.Fatal("parse error did not abort txn")
	}
	mustExec(t, s, `ROLLBACK`)
}

func TestAutocommitFailureRollsBackWholeStatement(t *testing.T) {
	s := NewSession(openEngine(t, 1))
	defer s.Close()
	mustExec(t, s,
		`CREATE TABLE t (a INT, PRIMARY KEY (a))`,
		`INSERT INTO t VALUES (5)`,
	)
	// Multi-row autocommit INSERT whose 2nd row collides: the first row
	// must not survive.
	if _, err := s.Exec(`INSERT INTO t VALUES (6), (5), (7)`); err == nil {
		t.Fatal("duplicate multi-row insert accepted")
	}
	res := mustExec(t, s, `SELECT a FROM t WHERE a >= 0`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 5 {
		t.Fatalf("half-applied autocommit statement: %+v", res.Rows)
	}
	if s.InTxn() {
		t.Fatal("autocommit failure left a txn open")
	}
}

func TestSnapshotAcrossSessions(t *testing.T) {
	eng := openEngine(t, 1)
	a, b := NewSession(eng), NewSession(eng)
	defer a.Close()
	defer b.Close()
	mustExec(t, a, `CREATE TABLE t (a INT, PRIMARY KEY (a))`)

	// Uncommitted writes of one session are invisible to the other.
	mustExec(t, a, `BEGIN`, `INSERT INTO t VALUES (1)`)
	if res := mustExec(t, b, `SELECT * FROM t`); len(res.Rows) != 0 {
		t.Fatalf("dirty read across sessions: %+v", res.Rows)
	}
	mustExec(t, a, `COMMIT`)
	if res := mustExec(t, b, `SELECT * FROM t`); len(res.Rows) != 1 {
		t.Fatalf("committed write invisible: %+v", res.Rows)
	}

	// A table created by one session is immediately usable by another:
	// the planner resolves from the live catalog, never a session cache.
	mustExec(t, a, `CREATE TABLE fresh (a INT, PRIMARY KEY (a))`)
	mustExec(t, b, `INSERT INTO fresh VALUES (1)`)
}

func TestConcurrentIncrementsViaSQL(t *testing.T) {
	eng := openEngine(t, 1)
	s := NewSession(eng)
	mustExec(t, s, `CREATE TABLE c (id INT, v INT, PRIMARY KEY (id))`, `INSERT INTO c VALUES (1, 0)`)
	s.Close()

	const workers, iters = 8, 50
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			sess := NewSession(eng)
			defer sess.Close()
			for i := 0; i < iters; i++ {
				if _, err := sess.Exec(`UPDATE c SET v = v + 1 WHERE id = 1`); err != nil {
					errc <- fmt.Errorf("update: %w", err)
					return
				}
			}
			errc <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	s2 := NewSession(eng)
	defer s2.Close()
	res := mustExec(t, s2, `SELECT v FROM c WHERE id = 1`)
	if got := res.Rows[0][0].Int(); got != workers*iters {
		t.Fatalf("lost increments: v = %d, want %d", got, workers*iters)
	}
}
