package sql

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/btrim"
)

// TestIndexSelectShardDown: with one of two shards down, an index
// SELECT (which streams each shard's matches into the result) returns
// every row of the healthy shard exactly once, with the partial-result
// warning, and btrim's LookupAll returns the same rows with
// ErrPartialResult.
func TestIndexSelectShardDown(t *testing.T) {
	db, err := btrim.Open(btrim.Config{IMRSCacheBytes: 16 << 20, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	if err := db.CreateTable(btrim.TableSpec{
		Name: "acct",
		Columns: []btrim.Column{
			{Name: "id", Type: btrim.Int64Type}, {Name: "grp", Type: btrim.Int64Type}, {Name: "name", Type: btrim.StringType},
		},
		PrimaryKey: []string{"id"},
		Indexes:    []btrim.IndexSpec{{Name: "acct_grp", Columns: []string{"grp"}}},
	}); err != nil {
		t.Fatal(err)
	}
	s := NewSession(Wrap(db))
	defer s.Close()
	for id := 1; id <= 40; id++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO acct VALUES (%d, 7, 'n%d')", id, id))
	}
	// The rows shard 0 holds, read from its engine directly.
	var want []int64
	tx := db.Node().Engine(0).Begin()
	for id := int64(1); id <= 40; id++ {
		if _, ok, err := tx.Get("acct", []btrim.Value{btrim.Int64(id)}); err != nil {
			t.Fatal(err)
		} else if ok {
			want = append(want, id)
		}
	}
	tx.Abort()
	if len(want) == 0 || len(want) == 40 {
		t.Fatalf("shard 0 holds %d of 40 rows; the test needs both shards to hold some", len(want))
	}
	if err := db.HaltShard(1); err != nil {
		t.Fatal(err)
	}

	ids := func(rows []btrim.Row) []int64 {
		var out []int64
		for _, r := range rows {
			out = append(out, r[0].Int())
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	same := func(got []int64) bool {
		return fmt.Sprint(got) == fmt.Sprint(want)
	}
	res, err := s.Exec("SELECT id, name FROM acct WHERE grp = 7")
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(res.Rows); !same(got) || res.Warning == "" {
		t.Fatalf("SELECT with shard 1 down: ids %v, warning %q; want ids %v and a warning", got, res.Warning, want)
	}
	err = db.View(func(tx *btrim.Tx) error {
		rows, err := tx.LookupAll("acct", "acct_grp", btrim.Int64(7))
		if got := ids(rows); !same(got) || !errors.Is(err, btrim.ErrPartialResult) {
			t.Fatalf("LookupAll with shard 1 down: ids %v, %v; want ids %v and ErrPartialResult", got, err, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// plainEngine hands out transactions that have only the Txn methods,
// as a decorator that does not know the projected ones would.
type plainEngine struct{ Engine }

func (e plainEngine) Begin() Txn { return struct{ Txn }{e.Engine.Begin()} }

// TestUpdateSetForms runs every form of SET through the column update
// (UpdateCols over the columns the SET writes and reads) and through a
// decorator without it (Update over the whole row): a SET reading
// another column, one reading a key column (which UpdateCols refuses,
// so the plan takes Update), the scan form, a prepared statement with
// a string, and a NULL in arithmetic. Both must leave the same rows.
func TestUpdateSetForms(t *testing.T) {
	var sessions []*Session
	for _, plain := range []bool{false, true} {
		db, err := btrim.Open(btrim.Config{IMRSCacheBytes: 16 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = db.Close() })
		var eng Engine = Wrap(db)
		if plain {
			eng = plainEngine{eng}
		}
		s := NewSession(eng)
		defer s.Close()
		mustExec(t, s, "CREATE TABLE t (id INT, a INT, b INT, s STRING) KEY (id)",
			"INSERT INTO t VALUES (1, 1, 10, 'one')", "INSERT INTO t VALUES (2, 2, 20, 'two')",
			"INSERT INTO t VALUES (3, 0, NULL, NULL)")
		if _, err := s.Prepare("ps", "UPDATE t SET s = ?, b = a + ? WHERE id = ?"); err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	for _, stmt := range []string{
		"UPDATE t SET a = b + 1, s = 'x' WHERE id = 1",
		"UPDATE t SET a = id + 10 WHERE id = 2",
		"UPDATE t SET b = b - 1 WHERE a > 0",
		"EXECUTE ps",
		"UPDATE t SET a = b + 1 WHERE id = 3",
		"UPDATE t SET s = NULL WHERE id = 1",
	} {
		var got []string
		for _, s := range sessions {
			var err error
			if stmt == "EXECUTE ps" {
				_, err = s.ExecPrepared("ps", []btrim.Value{btrim.String("a longer string"), btrim.Int64(5), btrim.Int64(2)})
			} else {
				_, err = s.Exec(stmt)
			}
			if (err != nil) != strings.Contains(stmt, "b + 1 WHERE id = 3") {
				t.Fatalf("%s: %v", stmt, err)
			}
			res := mustExec(t, s, "SELECT * FROM t")
			rows := make([]string, len(res.Rows))
			for i, r := range res.Rows {
				rows[i] = fmt.Sprint(r)
			}
			sort.Strings(rows)
			got = append(got, fmt.Sprint(err, rows))
		}
		if got[0] != got[1] {
			t.Fatalf("%s:\n column update: %s\n whole-row update: %s", stmt, got[0], got[1])
		}
	}
	res := mustExec(t, sessions[0], "SELECT a, b, s FROM t WHERE id = 2")
	if fmt.Sprint(res.Rows) != `[[12 17 "a longer string"]]` {
		t.Fatalf("row 2 = %v", res.Rows)
	}
}
