package sql

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func seedUsers(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s,
		`CREATE TABLE users (id INT, name STRING, score FLOAT, PRIMARY KEY (id))`,
		`INSERT INTO users VALUES (1, 'ada', 99.5), (2, 'grace', 88), (3, 'edsger', -4)`,
	)
}

func TestPrepareExecuteDeallocate(t *testing.T) {
	s := NewSession(openEngine(t, 1))
	defer s.Close()
	seedUsers(t, s)

	mustExec(t, s, `PREPARE by_id AS SELECT name FROM users WHERE id = ?`)
	res := mustExec(t, s, `EXECUTE by_id (2)`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "grace" {
		t.Fatalf("execute = %+v", res.Rows)
	}
	if res.Msg != "SELECT" {
		t.Fatalf("msg = %q, want inner verb", res.Msg)
	}
	// Same plan, different bind.
	res = mustExec(t, s, `EXECUTE by_id (3)`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "edsger" {
		t.Fatalf("rebind = %+v", res.Rows)
	}
	if s.Stats().PreparedExecs != 2 {
		t.Fatalf("prepared execs = %d", s.Stats().PreparedExecs)
	}

	// Writes through a prepared statement.
	mustExec(t, s, `PREPARE bump AS UPDATE users SET score = score + ? WHERE id = ?`)
	if res = mustExec(t, s, `EXECUTE bump (1.5, 2)`); res.Affected != 1 {
		t.Fatalf("update affected = %d", res.Affected)
	}
	if res = mustExec(t, s, `SELECT score FROM users WHERE id = 2`); res.Rows[0][0].Float() != 89.5 {
		t.Fatalf("score = %v", res.Rows[0][0])
	}

	// Negated placeholder: the sign lives in the statement.
	mustExec(t, s, `PREPARE negget AS SELECT id FROM users WHERE score = -?`)
	if res = mustExec(t, s, `EXECUTE negget (4)`); len(res.Rows) != 1 || res.Rows[0][0].Int() != 3 {
		t.Fatalf("negated param = %+v", res.Rows)
	}

	mustExec(t, s, `DEALLOCATE by_id`)
	if _, err := s.Exec(`EXECUTE by_id (1)`); err == nil || !errors.Is(err, ErrNoPrepared) {
		t.Fatalf("execute after deallocate: %v", err)
	}
}

func TestPreparedErrors(t *testing.T) {
	s := NewSession(openEngine(t, 1))
	defer s.Close()
	seedUsers(t, s)
	mustExec(t, s, `PREPARE p AS SELECT name FROM users WHERE id = ?`)

	// Wrong arity, both directions.
	if _, err := s.Exec(`EXECUTE p`); err == nil || !strings.Contains(err.Error(), "wants 1 parameters, got 0") {
		t.Fatalf("zero args: %v", err)
	}
	if _, err := s.Exec(`EXECUTE p (1, 2)`); err == nil || !strings.Contains(err.Error(), "wants 1 parameters, got 2") {
		t.Fatalf("two args: %v", err)
	}

	// Type-mismatched bind: string into the int key column.
	if _, err := s.Exec(`EXECUTE p ('zap')`); err == nil || !strings.Contains(err.Error(), "does not fit column id") {
		t.Fatalf("type mismatch: %v", err)
	}
	// Int widens into a float column.
	mustExec(t, s, `PREPARE byscore AS SELECT id FROM users WHERE score = ?`)
	if res := mustExec(t, s, `EXECUTE byscore (88)`); len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Fatalf("widened bind = %+v", res.Rows)
	}

	// Duplicate name without DEALLOCATE.
	if _, err := s.Exec(`PREPARE p AS SELECT id FROM users`); err == nil ||
		!strings.Contains(err.Error(), "already exists") {
		t.Fatalf("duplicate prepare: %v", err)
	}
	// Only DML is preparable (parser-level).
	if _, err := s.Exec(`PREPARE c AS CREATE TABLE x (a INT, PRIMARY KEY (a))`); err == nil {
		t.Fatal("prepare DDL should fail")
	}
	// Unknown table fails at PREPARE time.
	if _, err := s.Exec(`PREPARE ghost AS SELECT a FROM nothere`); err == nil {
		t.Fatal("prepare on missing table should fail")
	}
	// Bare placeholder without PREPARE is rejected with a pointer to it.
	if _, err := s.Exec(`SELECT name FROM users WHERE id = ?`); err == nil ||
		!strings.Contains(err.Error(), "use PREPARE") {
		t.Fatalf("bare placeholder: %v", err)
	}
	// DEALLOCATE of an unknown name.
	if _, err := s.Exec(`DEALLOCATE nothere`); err == nil || !errors.Is(err, ErrNoPrepared) {
		t.Fatalf("deallocate unknown: %v", err)
	}
}

func TestPreparedParamInArithmeticSet(t *testing.T) {
	s := NewSession(openEngine(t, 1))
	defer s.Close()
	mustExec(t, s,
		`CREATE TABLE acct (id INT, bal INT, PRIMARY KEY (id))`,
		`INSERT INTO acct VALUES (1, 100)`,
		`PREPARE pay AS UPDATE acct SET bal = bal - ? WHERE id = ?`,
	)
	mustExec(t, s, `EXECUTE pay (30, 1)`)
	if res := mustExec(t, s, `SELECT bal FROM acct WHERE id = 1`); res.Rows[0][0].Int() != 70 {
		t.Fatalf("bal = %v", res.Rows[0][0])
	}
	// NULL delta in arithmetic is a runtime error, not a silent no-op.
	if _, err := s.Exec(`EXECUTE pay (NULL, 1)`); err == nil ||
		!strings.Contains(err.Error(), "NULL") {
		t.Fatalf("null arithmetic: %v", err)
	}
}

func TestRePrepareUnderOpenTxn(t *testing.T) {
	s := NewSession(openEngine(t, 1))
	defer s.Close()
	seedUsers(t, s)
	mustExec(t, s, `BEGIN`)
	// PREPARE inside a transaction block is session state: legal.
	mustExec(t, s, `PREPARE q AS SELECT name FROM users WHERE id = ?`)
	if res := mustExec(t, s, `EXECUTE q (1)`); len(res.Rows) != 1 {
		t.Fatalf("execute in txn = %+v", res.Rows)
	}
	// Re-PREPARE of the same name fails and aborts the block.
	if _, err := s.Exec(`PREPARE q AS SELECT id FROM users`); err == nil {
		t.Fatal("re-prepare should fail")
	}
	if !s.Aborted() {
		t.Fatal("failed PREPARE should abort the open transaction")
	}
	if _, err := s.Exec(`EXECUTE q (1)`); !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("execute while aborted: %v", err)
	}
	mustExec(t, s, `ROLLBACK`)
	// The prepared statement survives the rollback (session scope).
	if res := mustExec(t, s, `EXECUTE q (2)`); len(res.Rows) != 1 || res.Rows[0][0].Str() != "grace" {
		t.Fatalf("execute after rollback = %+v", res.Rows)
	}
}

func testPlanCacheDDLInvalidation(t *testing.T, eng Engine) {
	s := NewSession(eng)
	defer s.Close()
	mustExec(t, s,
		`CREATE TABLE kv (k INT, v STRING, PRIMARY KEY (k))`,
		`INSERT INTO kv VALUES (1, 'one')`,
		`PREPARE get AS SELECT v FROM kv WHERE k = ?`,
	)
	if res := mustExec(t, s, `EXECUTE get (1)`); res.Rows[0][0].Str() != "one" {
		t.Fatalf("before drop = %+v", res.Rows)
	}
	// Warm the transparent cache with the same shape too.
	mustExec(t, s, `SELECT v FROM kv WHERE k = 1`)
	base := s.Stats()

	// Drop and recreate with a DIFFERENT column layout: a stale plan
	// would read the wrong ordinals or a dead partition.
	mustExec(t, s,
		`DROP TABLE kv`,
		`CREATE TABLE kv (k INT, pad INT, v STRING, PRIMARY KEY (k))`,
		`INSERT INTO kv VALUES (1, 0, 'uno'), (2, 0, 'dos')`,
	)
	if res := mustExec(t, s, `EXECUTE get (2)`); len(res.Rows) != 1 || res.Rows[0][0].Str() != "dos" {
		t.Fatalf("prepared after drop/recreate = %+v", res.Rows)
	}
	if res := mustExec(t, s, `SELECT v FROM kv WHERE k = 1`); len(res.Rows) != 1 || res.Rows[0][0].Str() != "uno" {
		t.Fatalf("cached stmt after drop/recreate = %+v", res.Rows)
	}
	st := s.Stats()
	if st.CacheInvalidations < base.CacheInvalidations+2 {
		t.Fatalf("invalidations %d -> %d, want +2 (prepared and transparent)",
			base.CacheInvalidations, st.CacheInvalidations)
	}

	// Dropped for good: both paths now fail with the typed table error.
	mustExec(t, s, `DROP TABLE kv`)
	var te *TableError
	if _, err := s.Exec(`EXECUTE get (1)`); !errors.As(err, &te) {
		t.Fatalf("execute after drop: %v", err)
	}
	if _, err := s.Exec(`SELECT v FROM kv WHERE k = 1`); !errors.As(err, &te) {
		t.Fatalf("select after drop: %v", err)
	}
}

func TestPlanCacheDDLInvalidation(t *testing.T) { forShards(t, testPlanCacheDDLInvalidation) }

func TestTransparentPlanCache(t *testing.T) {
	s := NewSession(openEngine(t, 1))
	defer s.Close()
	seedUsers(t, s)
	base := s.Stats()

	// Same shape, different literals: one miss then hits.
	for i, id := range []int{1, 2, 3, 1} {
		res := mustExec(t, s, fmt.Sprintf(`SELECT name FROM users WHERE id = %d`, id))
		if len(res.Rows) != 1 {
			t.Fatalf("iter %d: rows = %+v", i, res.Rows)
		}
	}
	st := s.Stats()
	if hits := st.CacheHits - base.CacheHits; hits != 3 {
		t.Fatalf("cache hits = %d, want 3", hits)
	}
	if misses := st.CacheMisses - base.CacheMisses; misses != 1 {
		t.Fatalf("cache misses = %d, want 1", misses)
	}

	// Negative literals share a shape with each other, not with positives.
	mustExec(t, s, `SELECT id FROM users WHERE score = -4`)
	pre := s.Stats()
	mustExec(t, s, `SELECT id FROM users WHERE score = -99`)
	if got := s.Stats().CacheHits - pre.CacheHits; got != 1 {
		t.Fatalf("negated literal should hit the negated shape, hits delta = %d", got)
	}

	// Results with swapped constants are correct (args really rebind).
	r1 := mustExec(t, s, `SELECT name FROM users WHERE id = 1`)
	r2 := mustExec(t, s, `SELECT name FROM users WHERE id = 2`)
	if r1.Rows[0][0].Str() != "ada" || r2.Rows[0][0].Str() != "grace" {
		t.Fatalf("rebind broke results: %v %v", r1.Rows, r2.Rows)
	}

	// LIMIT stays concrete: different limits are different plans.
	mustExec(t, s, `SELECT id FROM users LIMIT 1`)
	pre = s.Stats()
	mustExec(t, s, `SELECT id FROM users LIMIT 2`)
	if got := s.Stats().CacheMisses - pre.CacheMisses; got != 1 {
		t.Fatalf("different LIMIT must be a different plan, misses delta = %d", got)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	s := NewSession(openEngine(t, 1))
	defer s.Close()
	mustExec(t, s, `CREATE TABLE t0 (a INT, PRIMARY KEY (a))`)
	// planCacheSize distinct shapes fill the cache; one more evicts.
	for i := 0; i < planCacheSize+1; i++ {
		mustExec(t, s, fmt.Sprintf(`SELECT a FROM t0 WHERE a = 1 LIMIT %d`, i+1))
	}
	st := s.Stats()
	if st.CacheEvictions == 0 {
		t.Fatalf("expected evictions, stats = %+v", st)
	}
	if st.CacheSize > planCacheSize {
		t.Fatalf("cache size %d exceeds max %d", st.CacheSize, planCacheSize)
	}
}

func testINAndIndexLookup(t *testing.T, eng Engine) {
	s := NewSession(eng)
	defer s.Close()
	mustExec(t, s,
		`CREATE TABLE ev (id INT, kind STRING, n INT, PRIMARY KEY (id))`,
	)
	for i := 1; i <= 40; i++ {
		kind := "a"
		if i%2 == 0 {
			kind = "b"
		}
		mustExec(t, s, fmt.Sprintf(`INSERT INTO ev VALUES (%d, '%s', %d)`, i, kind, i*10))
	}

	// PK IN list: point gets, set semantics (duplicates collapse).
	res := mustExec(t, s, `SELECT id FROM ev WHERE id IN (3, 7, 3, 99)`)
	if len(res.Rows) != 2 {
		t.Fatalf("pk IN rows = %+v", res.Rows)
	}
	got := map[int64]bool{}
	for _, r := range res.Rows {
		got[r[0].Int()] = true
	}
	if !got[3] || !got[7] {
		t.Fatalf("pk IN = %v", got)
	}

	// IN combined with a residual predicate.
	res = mustExec(t, s, `SELECT id FROM ev WHERE id IN (2, 4, 6) AND n > 45`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 6 {
		t.Fatalf("pk IN residual = %+v", res.Rows)
	}

	// IN on a non-indexed column falls back to the scan path.
	res = mustExec(t, s, `SELECT id FROM ev WHERE n IN (100, 200, 999)`)
	if len(res.Rows) != 2 {
		t.Fatalf("scan IN rows = %+v", res.Rows)
	}

	// Prepared IN with placeholders.
	mustExec(t, s, `PREPARE pick AS SELECT id FROM ev WHERE id IN (?, ?)`)
	res = mustExec(t, s, `EXECUTE pick (10, 20)`)
	if len(res.Rows) != 2 {
		t.Fatalf("prepared IN = %+v", res.Rows)
	}
}

func TestINAndIndexLookup(t *testing.T) { forShards(t, testINAndIndexLookup) }

func TestDropTableStatement(t *testing.T) {
	s := NewSession(openEngine(t, 1))
	defer s.Close()
	seedUsers(t, s)
	mustExec(t, s, `DROP TABLE users`)
	var te *TableError
	if _, err := s.Exec(`SELECT id FROM users`); !errors.As(err, &te) {
		t.Fatalf("select after drop: %v", err)
	}
	if _, err := s.Exec(`DROP TABLE users`); err == nil {
		t.Fatal("double drop should fail")
	}
	// DDL inside a transaction block is rejected.
	mustExec(t, s, `CREATE TABLE u2 (id INT, PRIMARY KEY (id))`, `BEGIN`)
	if _, err := s.Exec(`DROP TABLE u2`); !errors.Is(err, ErrDDLInTxn) {
		t.Fatalf("drop in txn: %v", err)
	}
	mustExec(t, s, `ROLLBACK`)
}
