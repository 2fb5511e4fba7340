package cli

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/btrim"
	"repro/internal/sql"
)

func newShell(t *testing.T) (*Shell, *bytes.Buffer) { return newShellOn(t, 1) }

func newShellOn(t *testing.T, shards int) (*Shell, *bytes.Buffer) {
	t.Helper()
	db, err := btrim.Open(btrim.Config{IMRSCacheBytes: 8 << 20, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	var buf bytes.Buffer
	return New(db, &buf), &buf
}

func mustExec(t *testing.T, s *Shell, lines ...string) {
	t.Helper()
	for _, l := range lines {
		if err := s.Exec(l); err != nil {
			t.Fatalf("exec %q: %v", l, err)
		}
	}
}

func TestShellEndToEnd(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { shellEndToEnd(t, shards) })
	}
}

func shellEndToEnd(t *testing.T, shards int) {
	s, buf := newShellOn(t, shards)
	mustExec(t, s,
		`create table users (id int, name string, score float) key (id)`,
		`insert into users values (1, "ada", 99.5)`,
		`insert into users values (2, "grace", 88)`,
		`select * from users where id = 1`,
	)
	if !strings.Contains(buf.String(), `"ada"`) {
		t.Fatalf("select output missing row: %s", buf.String())
	}
	buf.Reset()
	mustExec(t, s, `update users set name = "ada lovelace", score = 100 where id = 1`, `select * from users where id = 1`)
	if !strings.Contains(buf.String(), "ada lovelace") || !strings.Contains(buf.String(), "100") {
		t.Fatalf("update not applied: %s", buf.String())
	}
	buf.Reset()
	mustExec(t, s, `select * from users`)
	if !strings.Contains(buf.String(), "(2 rows)") {
		t.Fatalf("scan output: %s", buf.String())
	}
	buf.Reset()
	mustExec(t, s, `insert into users values (3, "edsger", 77)`, `tables`)
	// table, IMRS-rows, IMRS-KB, reuse-ops, page-ops, packed, enabled:
	// three rows in memory summed over the shards, and the table still
	// takes IMRS inserts.
	if f := tableLine(t, buf.String(), "users"); f[1] != "3" || f[6] != "true" {
		t.Fatalf("tables: users row = %q, want 3 IMRS rows and enabled=true:\n%s", f, buf.String())
	}
	buf.Reset()
	mustExec(t, s, `stats`)
	// Every operation so far was served in memory.
	if !strings.HasPrefix(buf.String(), "IMRS: 3 rows, ") || !strings.Contains(buf.String(), ", hit rate 100.0%\n") {
		t.Fatalf("stats output: %s", buf.String())
	}
	buf.Reset()
	mustExec(t, s, `delete from users where id = 2`, `select * from users`)
	if !strings.Contains(buf.String(), "DELETE 1") || !strings.Contains(buf.String(), "(2 rows)") {
		t.Fatalf("delete not applied: %s", buf.String())
	}
	buf.Reset()
	mustExec(t, s, `select * from users where id = 2`)
	if !strings.Contains(buf.String(), "(0 rows)") {
		t.Fatalf("missing-row select: %s", buf.String())
	}
	buf.Reset()
	mustExec(t, s, `pin users out`, `tables`)
	if f := tableLine(t, buf.String(), "users"); f[6] != "false" {
		t.Fatalf("tables after pin out: users row = %q, want enabled=false", f)
	}
	buf.Reset()
	mustExec(t, s, `stats`, `checkpoint`, `pin users in`, `unpin users`, `help`)
	for _, want := range []string{"IMRS:", "pack:", "admin commands"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("meta-command output lacks %q: %s", want, buf.String())
		}
	}
}

// tableLine returns the fields of the `tables` output row naming table.
func tableLine(t *testing.T, out, table string) []string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 7 && f[0] == table {
			return f
		}
	}
	t.Fatalf("tables output has no %q row:\n%s", table, out)
	return nil
}

func TestShellErrors(t *testing.T) {
	s, _ := newShell(t)
	cases := []string{
		`bogus`,
		`create table`,
		`create table t (a unknown) key (a)`,
		`create table t (a int) key ()`,
		`insert into missing values (1)`,
		`select * from missing`,
		`pin users sideways`,
		`unpin`,
		`unpin missing`,
		`insert`,
		// The terse DML dialect is gone: SQL is the one language.
		`insert t 1 "x"`,
		`get t 1`,
		`set t 1 "x"`,
		`delete t 1`,
		`scan t`,
	}
	for _, c := range cases {
		if err := s.Exec(c); err == nil {
			t.Errorf("command %q should fail", c)
		}
	}
	mustExec(t, s, `create table t (a int, b string) key (a)`)
	if err := s.Exec(`insert into t values (1)`); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := s.Exec(`insert into t values ("x", "y")`); err == nil {
		t.Error("type mismatch accepted")
	}
	if err := s.Exec(`insert into t values (1, "ok")`); err != nil {
		t.Errorf("valid insert after errors failed: %v", err)
	}
	if err := s.Exec(`insert into t values (1, "dup")`); !errors.Is(err, btrim.ErrDuplicateKey) {
		t.Errorf("duplicate key: %v", err)
	}
}

func TestShellCompositeKeys(t *testing.T) {
	s, buf := newShell(t)
	mustExec(t, s,
		`create table kv (region string, id int, v string) key (region, id)`,
		`insert into kv values ("eu", 1, "one")`,
		`insert into kv values ("us", 1, "uno")`,
		`select v from kv where region = "eu" and id = 1`,
	)
	if !strings.Contains(buf.String(), "one") || strings.Contains(buf.String(), "uno") {
		t.Fatalf("composite point select wrong: %s", buf.String())
	}
	// Half the key is a prefix scan, not a point read.
	buf.Reset()
	mustExec(t, s, `insert into kv values ("eu", 2, "two")`, `select v from kv where region = "eu"`)
	if !strings.Contains(buf.String(), "(2 rows)") || strings.Contains(buf.String(), "uno") {
		t.Fatalf("key-prefix select wrong: %s", buf.String())
	}
}

// TestShellValueEdgeCases: negative numbers, empty strings, both quote
// styles and escaped quotes survive the trip through the shell, and a
// quoted literal is never coerced into a numeric column.
func TestShellValueEdgeCases(t *testing.T) {
	s, buf := newShell(t)
	mustExec(t, s,
		`create table t (a int, f float, v string) key (a)`,
		`insert into t values (-5, -1.5, "")`,
		`insert into t values (2, 2.5, "say \"hi\"")`,
		`insert into t values (3, 0, 'it''s')`,
		`select * from t where a = -5`,
	)
	if !strings.Contains(buf.String(), "-1.5") || !strings.Contains(buf.String(), `""`) {
		t.Fatalf("negative values or empty string lost: %s", buf.String())
	}
	buf.Reset()
	mustExec(t, s, `select v from t where a = 2`)
	if !strings.Contains(buf.String(), `say \"hi\"`) && !strings.Contains(buf.String(), `say "hi"`) {
		t.Fatalf("escaped quote lost: %s", buf.String())
	}
	buf.Reset()
	mustExec(t, s, `select a from t where v = 'it''s'`)
	if !strings.Contains(buf.String(), "(1 rows)") {
		t.Fatalf("doubled single quote lost: %s", buf.String())
	}
	if err := s.Exec(`insert into t values ("4", 1.0, "x")`); err == nil {
		t.Fatal("string literal accepted for int column")
	}
	if err := s.Exec(`insert into t values (4, "1.0", "x")`); err == nil {
		t.Fatal("string literal accepted for float column")
	}
}

// TestShellLiveSchema is the stale-cache regression: two shells over
// one database must see each other's DDL immediately, because column
// layouts come from the live catalog, not a per-shell snapshot.
func TestShellLiveSchema(t *testing.T) {
	db, err := btrim.Open(btrim.Config{IMRSCacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	var bufA, bufB bytes.Buffer
	a, b := New(db, &bufA), New(db, &bufB)

	if err := a.Exec(`create table t (a int, b string) key (a)`); err != nil {
		t.Fatal(err)
	}
	// Shell B never saw the create; it must still bind values to the
	// right layout.
	if err := b.Exec(`insert into t values (1, "from-b")`); err != nil {
		t.Fatalf("shell B blind to shell A's table: %v", err)
	}
	bufA.Reset()
	if err := a.Exec(`select * from t where a = 1`); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(bufA.String(), "from-b") {
		t.Fatalf("cross-shell row invisible: %s", bufA.String())
	}
}

// TestShellSQLDialect drives the SQL statements through the shell.
func TestShellSQLDialect(t *testing.T) {
	s, buf := newShell(t)
	mustExec(t, s,
		`CREATE TABLE users (id INT, name STRING, score FLOAT, PRIMARY KEY (id))`,
		`INSERT INTO users VALUES (1, 'ada', 99.5), (2, 'grace', 88)`,
		`UPDATE users SET score = score + 1 WHERE id = 2`,
		`SELECT name FROM users WHERE score > 88.5`,
	)
	out := buf.String()
	if !strings.Contains(out, "ada") || !strings.Contains(out, "grace") {
		t.Fatalf("select output: %s", out)
	}
	if !strings.Contains(out, "(2 rows)") {
		t.Fatalf("row count missing: %s", out)
	}
	buf.Reset()
	mustExec(t, s, `DELETE FROM users WHERE id = 1`, `show tables`)
	if !strings.Contains(buf.String(), "DELETE 1") || !strings.Contains(buf.String(), "users") {
		t.Fatalf("delete/show output: %s", buf.String())
	}
}

// TestShellTxnStateMachine: the shell is one session — a failed
// statement inside BEGIN aborts the block, and later statements are
// rejected with the typed error until the block ends.
func TestShellTxnStateMachine(t *testing.T) {
	s, buf := newShell(t)
	mustExec(t, s,
		`create table t (a int, b string) key (a)`,
		`insert into t values (1, "committed")`,
		`begin`,
		`insert into t values (2, "in-txn")`,
	)
	// A read inside the block sees its own uncommitted write.
	buf.Reset()
	mustExec(t, s, `select b from t where a = 2`)
	if !strings.Contains(buf.String(), "in-txn") {
		t.Fatalf("own write invisible in txn: %s", buf.String())
	}
	// A duplicate-key failure aborts the block...
	if err := s.Exec(`insert into t values (1, "dup")`); !errors.Is(err, btrim.ErrDuplicateKey) {
		t.Fatalf("dup insert: %v", err)
	}
	// ...so every later statement fails typed.
	if err := s.Exec(`select * from t where a = 1`); !errors.Is(err, sql.ErrTxnAborted) {
		t.Fatalf("point read after abort: %v", err)
	}
	if err := s.Exec(`SELECT * FROM t`); !errors.Is(err, sql.ErrTxnAborted) {
		t.Fatalf("scan after abort: %v", err)
	}
	if err := s.Exec(`commit`); !errors.Is(err, sql.ErrTxnAborted) {
		t.Fatalf("commit of aborted block: %v", err)
	}
	// The block is gone: its insert rolled back, the session is usable.
	buf.Reset()
	mustExec(t, s, `select * from t`)
	if !strings.Contains(buf.String(), "(1 rows)") {
		t.Fatalf("rolled-back write leaked: %s", buf.String())
	}
	// And a clean BEGIN...COMMIT applies atomically.
	mustExec(t, s,
		`begin`,
		`insert into t values (2, "two")`,
		`INSERT INTO t VALUES (3, 'three')`,
		`commit`,
	)
	buf.Reset()
	mustExec(t, s, `select * from t`)
	if !strings.Contains(buf.String(), "(3 rows)") {
		t.Fatalf("committed block lost rows: %s", buf.String())
	}
	// DDL inside a block is refused and aborts it (defined state).
	mustExec(t, s, `begin`)
	if err := s.Exec(`create table u (x int) key (x)`); !errors.Is(err, sql.ErrDDLInTxn) {
		t.Fatalf("DDL in txn: %v", err)
	}
	if err := s.Exec(`select * from t where a = 2`); !errors.Is(err, sql.ErrTxnAborted) {
		t.Fatalf("block not aborted after DDL: %v", err)
	}
	mustExec(t, s, `rollback`)
}

func TestShellRecoveredSchema(t *testing.T) {
	dir := t.TempDir()
	db, err := btrim.Open(btrim.Config{Dir: dir, IMRSCacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, new(bytes.Buffer))
	mustExec(t, s,
		`create table t (a int, b string) key (a)`,
		`insert into t values (1, "persisted")`,
	)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := btrim.Open(btrim.Config{Dir: dir, IMRSCacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	var buf bytes.Buffer
	s2 := New(db2, &buf)
	// Schema learned from the recovered catalog, not the session.
	mustExec(t, s2, `select * from t where a = 1`)
	if !strings.Contains(buf.String(), "persisted") {
		t.Fatalf("recovered select: %s", buf.String())
	}
}
