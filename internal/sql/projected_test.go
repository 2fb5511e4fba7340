package sql

import (
	"errors"
	"fmt"
	"sort"
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
