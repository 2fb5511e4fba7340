package btrim_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/btrim"
)

// forShards runs fn on a one-shard database (the default shape) and on
// a three-shard one (routing, fan-out reads, two-phase commit): the
// public API promises the same behaviour on both.
func forShards(t *testing.T, fn func(t *testing.T, shards int)) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { fn(t, n) })
	}
}

func openDB(t *testing.T, cfg btrim.Config) *btrim.DB {
	t.Helper()
	if cfg.IMRSCacheBytes == 0 {
		cfg.IMRSCacheBytes = 8 << 20
	}
	db, err := btrim.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	return db
}

func accountsSpec() btrim.TableSpec {
	return btrim.TableSpec{
		Name: "accounts",
		Columns: []btrim.Column{
			{Name: "id", Type: btrim.Int64Type},
			{Name: "owner", Type: btrim.StringType},
			{Name: "balance", Type: btrim.Float64Type},
		},
		PrimaryKey: []string{"id"},
		Indexes: []btrim.IndexSpec{
			{Name: "accounts_owner", Columns: []string{"owner"}},
		},
	}
}

// insertAccounts inserts ids 1..n in one transaction.
func insertAccounts(t *testing.T, db *btrim.DB, n int64) {
	t.Helper()
	err := db.Update(func(tx *btrim.Tx) error {
		for i := int64(1); i <= n; i++ {
			if err := tx.Insert("accounts", btrim.Values(
				btrim.Int64(i), btrim.String(fmt.Sprintf("owner-%d", i%3)), btrim.Float64(float64(i)*10),
			)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIRoundTrip(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		db := openDB(t, btrim.Config{Shards: shards})
		if got := db.NumShards(); got != shards {
			t.Fatalf("NumShards = %d, want %d", got, shards)
		}
		if err := db.CreateTable(accountsSpec()); err != nil {
			t.Fatal(err)
		}
		insertAccounts(t, db, 10)

		err := db.View(func(tx *btrim.Tx) error {
			r, ok, err := tx.Get("accounts", btrim.Int64(7))
			if err != nil || !ok {
				return fmt.Errorf("get: %v %v", ok, err)
			}
			if r[2].Float() != 70 {
				return fmt.Errorf("balance = %v", r[2])
			}
			rows, err := tx.LookupAll("accounts", "accounts_owner", btrim.String("owner-1"))
			if err != nil {
				return err
			}
			if len(rows) != 4 { // ids 1,4,7,10
				return fmt.Errorf("LookupAll = %d rows", len(rows))
			}
			n := 0
			if err := tx.Scan("accounts", func(btrim.Row) bool { n++; return true }); err != nil {
				return err
			}
			if n != 10 {
				return fmt.Errorf("scan = %d rows", n)
			}
			n = 0
			if err := tx.ScanBatches("accounts", []string{"id"}, 0, func(b *btrim.Batch) bool { n += b.Len(); return true }); err != nil {
				return err
			}
			if n != 10 {
				return fmt.Errorf("batch scan = %d rows", n)
			}
			var owners []string
			if err := tx.IndexScan("accounts", "accounts_owner", nil, func(r btrim.Row) bool {
				owners = append(owners, r[1].Str())
				return true
			}); err != nil {
				return err
			}
			// Ordered within a shard, not across shards.
			if len(owners) != 10 || (shards == 1 && !sort.StringsAreSorted(owners)) {
				return fmt.Errorf("index scan = %q", owners)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestPublicAPIUpdateDelete(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		db := openDB(t, btrim.Config{Shards: shards})
		if err := db.CreateTable(accountsSpec()); err != nil {
			t.Fatal(err)
		}
		_ = db.Update(func(tx *btrim.Tx) error {
			return tx.Insert("accounts", btrim.Values(btrim.Int64(1), btrim.String("a"), btrim.Float64(100)))
		})
		err := db.Update(func(tx *btrim.Tx) error {
			ok, err := tx.Update("accounts", []btrim.Value{btrim.Int64(1)}, func(r btrim.Row) (btrim.Row, error) {
				r[2] = btrim.Float64(r[2].Float() - 25)
				return r, nil
			})
			if err != nil || !ok {
				return fmt.Errorf("update: %v %v", ok, err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = db.View(func(tx *btrim.Tx) error {
			r, _, _ := tx.Get("accounts", btrim.Int64(1))
			if r[2].Float() != 75 {
				t.Fatalf("balance = %v", r[2])
			}
			return nil
		})
		err = db.Update(func(tx *btrim.Tx) error {
			ok, err := tx.Set("accounts", []btrim.Value{btrim.Int64(1)},
				btrim.Values(btrim.Int64(1), btrim.String("b"), btrim.Float64(5)))
			if err != nil || !ok {
				return fmt.Errorf("set: %v %v", ok, err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = db.View(func(tx *btrim.Tx) error {
			r, _, _ := tx.Get("accounts", btrim.Int64(1))
			if r[1].Str() != "b" || r[2].Float() != 5 {
				t.Fatalf("row after Set = %v", r)
			}
			return nil
		})
		err = db.Update(func(tx *btrim.Tx) error {
			ok, err := tx.Delete("accounts", btrim.Int64(1))
			if err != nil || !ok {
				return fmt.Errorf("delete: %v %v", ok, err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = db.View(func(tx *btrim.Tx) error {
			if _, ok, _ := tx.Get("accounts", btrim.Int64(1)); ok {
				t.Fatal("deleted row visible")
			}
			return nil
		})
	})
}

func TestPublicAPIDuplicateKey(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		db := openDB(t, btrim.Config{Shards: shards})
		if err := db.CreateTable(accountsSpec()); err != nil {
			t.Fatal(err)
		}
		_ = db.Update(func(tx *btrim.Tx) error {
			return tx.Insert("accounts", btrim.Values(btrim.Int64(1), btrim.String("a"), btrim.Float64(1)))
		})
		err := db.Update(func(tx *btrim.Tx) error {
			return tx.Insert("accounts", btrim.Values(btrim.Int64(1), btrim.String("b"), btrim.Float64(2)))
		})
		if !btrim.IsDuplicateKey(err) {
			t.Fatalf("err = %v, want duplicate key", err)
		}
	})
}

// checkRollup asserts the shape of a node snapshot: one Shards entry per
// shard, and on a one-shard node a rollup equal to that shard's own
// snapshot field for field — so the shell and btrimd print what the
// engine reports.
func checkRollup(t *testing.T, s btrim.Stats, shards int) {
	t.Helper()
	if len(s.Shards) != shards {
		t.Fatalf("stats carry %d shards, want %d", len(s.Shards), shards)
	}
	if shards != 1 {
		return
	}
	gv, wv := reflect.ValueOf(s.Snapshot), reflect.ValueOf(s.Shards[0])
	for i := 0; i < gv.NumField(); i++ {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("one-shard rollup: %s = %+v, shard 0 has %+v",
				gv.Type().Field(i).Name, gv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
}

func TestPublicAPIStats(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		db := openDB(t, btrim.Config{Shards: shards})
		if err := db.CreateTable(accountsSpec()); err != nil {
			t.Fatal(err)
		}
		insertAccounts(t, db, 20)
		s := db.Stats()
		if s.IMRSRows != 20 {
			t.Fatalf("IMRSRows = %d", s.IMRSRows)
		}
		if ps := s.Partition("accounts"); ps.IMRSRows != 20 || !ps.InsertEnabled {
			t.Fatalf("partition stats = %+v", ps)
		}
		if s.IMRSHitRate() == 0 {
			t.Fatal("hit rate should be positive after IMRS inserts")
		}
		checkRollup(t, s, shards)
		// The one insert transaction wrote every shard: a plain commit on
		// one shard, two-phase commit on three.
		if shards == 1 {
			if s.SingleShardCommits != 1 || s.CrossShardCommits != 0 || s.TwoPC.Prepares != 0 {
				t.Fatalf("one shard: single=%d cross=%d prepares=%d", s.SingleShardCommits, s.CrossShardCommits, s.TwoPC.Prepares)
			}
		} else if s.CrossShardCommits != 1 || s.TwoPC.Prepares == 0 || s.TwoPC.Decisions == 0 {
			t.Fatalf("2PC rollup: cross=%d prepares=%d decisions=%d", s.CrossShardCommits, s.TwoPC.Prepares, s.TwoPC.Decisions)
		}
	})
}

func TestPublicAPIILMOff(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		db := openDB(t, btrim.Config{DisableILM: true, Shards: shards})
		if err := db.CreateTable(accountsSpec()); err != nil {
			t.Fatal(err)
		}
		insertAccounts(t, db, 20)
		s := db.Stats()
		if s.IMRSRows != 20 || s.RowsPacked != 0 {
			t.Fatalf("ILM_OFF stats: rows=%d packed=%d", s.IMRSRows, s.RowsPacked)
		}
	})
}

// TestPublicAPIAdminFanOut: the administrative calls reach every shard.
func TestPublicAPIAdminFanOut(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		db := openDB(t, btrim.Config{Dir: t.TempDir(), Shards: shards})
		if err := db.CreateTable(accountsSpec()); err != nil {
			t.Fatal(err)
		}
		insertAccounts(t, db, 20)
		before := db.Stats().Checkpoints
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := db.Stats().Checkpoints - before; got != int64(shards) {
			t.Fatalf("Checkpoint ran on %d shards, want %d", got, shards)
		}
		if err := db.CompactLog(); err != nil {
			t.Fatal(err)
		}
		if err := db.PinTable("accounts", false); err != nil {
			t.Fatal(err)
		}
		if db.Stats().Partition("accounts").InsertEnabled {
			t.Fatal("table pinned out still IMRS-enabled on some shard")
		}
		if err := db.UnpinTable("accounts"); err != nil {
			t.Fatal(err)
		}
		for i, sh := range db.Stats().Shards {
			if !sh.Partition("accounts").InsertEnabled {
				t.Fatalf("shard %d still pinned out after UnpinTable", i)
			}
		}
		if err := db.UnpinTable("missing"); err == nil {
			t.Fatal("UnpinTable of a missing table succeeded")
		}
	})
}

// TestPublicAPIPersistence: the full lifecycle against file-backed
// shards — create, write, restart from disk, and every key comes back
// on the shard the fixed-seed router sends its reads to.
func TestPublicAPIPersistence(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		cfg := btrim.Config{Dir: t.TempDir(), Shards: shards, IMRSCacheBytes: 24 << 20}
		db, err := btrim.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.CreateTable(accountsSpec()); err != nil {
			t.Fatal(err)
		}
		insertAccounts(t, db, 100)
		if got := db.Stats().IMRSRows; got != 100 {
			t.Fatalf("rolled-up IMRS rows = %d, want 100", got)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		db2, err := btrim.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer db2.Close()
		s := db2.Stats()
		if !s.Recovery.Ran {
			t.Fatal("reopen did not run recovery")
		}
		checkRollup(t, s, shards)
		err = db2.View(func(tx *btrim.Tx) error {
			for i := int64(1); i <= 100; i++ {
				r, ok, err := tx.Get("accounts", btrim.Int64(i))
				if err != nil || !ok {
					t.Fatalf("key %d after restart: ok=%v err=%v", i, ok, err)
				}
				if r[2].Float() != float64(i)*10 {
					t.Fatalf("key %d: balance %v", i, r[2])
				}
			}
			var n int
			if err := tx.Scan("accounts", func(btrim.Row) bool { n++; return true }); err != nil {
				return err
			}
			if n != 100 {
				t.Fatalf("scan saw %d rows, want 100", n)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// listing returns every path under dir, sorted, with file sizes.
func listing(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		out = append(out, fmt.Sprintf("%s %d", p, info.Size()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPublicAPILayoutMismatch: a directory is served only by the shard
// count it was created with. Shards 0 adopts it; any other count, or a
// directory in the single-engine layout of earlier versions, is refused
// with the typed error before anything on disk changes — opening it
// would route most keys to a shard that does not hold them.
func TestPublicAPILayoutMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := btrim.Config{Dir: dir, Shards: 4, IMRSCacheBytes: 32 << 20}
	db, err := btrim.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(accountsSpec()); err != nil {
		t.Fatal(err)
	}
	insertAccounts(t, db, 100)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	before := listing(t, dir)
	for _, n := range []int{1, 8} {
		cfg.Shards = n
		if db, err := btrim.Open(cfg); !errors.Is(err, btrim.ErrLayoutMismatch) {
			if err == nil {
				db.Close()
			}
			t.Fatalf("4-shard directory opened with Shards=%d: err = %v, want ErrLayoutMismatch", n, err)
		}
		if after := listing(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("refused open with Shards=%d changed the directory:\n%q\n%q", n, before, after)
		}
	}

	cfg.Shards = 0
	db, err = btrim.Open(cfg)
	if err != nil {
		t.Fatalf("Shards=0 over a 4-shard directory: %v", err)
	}
	defer db.Close()
	if got := db.NumShards(); got != 4 {
		t.Fatalf("Shards=0 adopted %d shards, want 4", got)
	}
	_ = db.View(func(tx *btrim.Tx) error {
		for i := int64(1); i <= 100; i++ {
			if _, ok, err := tx.Get("accounts", btrim.Int64(i)); err != nil || !ok {
				t.Fatalf("key %d after adopting the layout: ok=%v err=%v", i, ok, err)
			}
		}
		return nil
	})

	// An empty directory with Shards 0 is a new one-shard database.
	fresh, err := btrim.Open(btrim.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if got := fresh.NumShards(); got != 1 {
		t.Fatalf("empty directory opened with %d shards, want 1", got)
	}
	fresh.Close()

	legacy := t.TempDir()
	if err := os.WriteFile(filepath.Join(legacy, "data.db"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	before = listing(t, legacy)
	for _, n := range []int{0, 1} {
		if db, err := btrim.Open(btrim.Config{Dir: legacy, Shards: n}); !errors.Is(err, btrim.ErrLayoutMismatch) {
			if err == nil {
				db.Close()
			}
			t.Fatalf("single-engine layout opened with Shards=%d: err = %v, want ErrLayoutMismatch", n, err)
		}
	}
	if after := listing(t, legacy); !reflect.DeepEqual(before, after) {
		t.Fatalf("refused open changed the legacy directory: %q -> %q", before, after)
	}
}

// TestPublicAPIHaltShard: the typed error and per-shard health surface.
func TestPublicAPIHaltShard(t *testing.T) {
	db := openDB(t, btrim.Config{Shards: 2, IMRSCacheBytes: 16 << 20})
	if err := db.CreateTable(accountsSpec()); err != nil {
		t.Fatal(err)
	}
	if err := db.HaltShard(1); err != nil {
		t.Fatal(err)
	}
	if db.ShardHealth(1) != btrim.StateHalted || db.ShardHealth(0) != btrim.StateHealthy {
		t.Fatalf("health = %v/%v", db.ShardHealth(0), db.ShardHealth(1))
	}
	// Some key routes to the dead shard; inserting it fails typed.
	var sawDown bool
	for i := int64(1); i <= 16 && !sawDown; i++ {
		err := db.Update(func(tx *btrim.Tx) error {
			return tx.Insert("accounts", btrim.Values(btrim.Int64(i), btrim.String("o"), btrim.Float64(1)))
		})
		if err != nil {
			if !errors.Is(err, btrim.ErrShardDown) {
				t.Fatalf("unexpected error class: %v", err)
			}
			sawDown = true
		}
	}
	if !sawDown {
		t.Fatal("no key of 16 routed to the dead shard")
	}
	if got := db.Stats().Health.State; got != btrim.StateHalted {
		t.Fatalf("rolled-up health should report the worst shard, got %v", got)
	}
	if got := db.Health().State; got != btrim.StateHalted {
		t.Fatalf("Health() should report the worst shard, got %v", got)
	}
}

// TestNodeRecoveryStats: the shards of a node recover concurrently, so
// the node's recovery Total is the wall time of its open: no less than
// the slowest shard's recovery and no more than all of them one after
// the other. The phases merge by name across the shards.
func TestNodeRecoveryStats(t *testing.T) {
	cfg := btrim.Config{Dir: t.TempDir(), Shards: 2, IMRSCacheBytes: 32 << 20}
	db, err := btrim.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(accountsSpec()); err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 10; batch++ {
		err := db.Update(func(tx *btrim.Tx) error {
			for i := int64(1); i <= 1000; i++ {
				id := int64(batch)*1000 + i
				if err := tx.Insert("accounts", btrim.Values(
					btrim.Int64(id), btrim.String(fmt.Sprintf("owner-%d", id%7)), btrim.Float64(float64(id)),
				)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := btrim.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	s := db2.Stats()
	var slowest, sum time.Duration
	for i, sh := range s.Shards {
		if !sh.Recovery.Ran {
			t.Fatalf("shard %d did not recover", i)
		}
		slowest = max(slowest, sh.Recovery.Total)
		sum += sh.Recovery.Total
	}
	if s.Recovery.Total < slowest || s.Recovery.Total > sum {
		t.Fatalf("node recovery Total = %v, want within [%v, %v] (slowest shard, sum of shards)",
			s.Recovery.Total, slowest, sum)
	}
	if len(s.Recovery.Phases) == 0 {
		t.Fatal("node recovery stats carry no phases")
	}
	var replayed int64
	for _, p := range s.Recovery.Phases {
		if p.Name == "imrs-replay" {
			replayed += p.Items
		}
	}
	if replayed != s.Recovery.IMRSRecords || replayed < 10000 {
		t.Fatalf("merged imrs-replay items = %d, want the node's %d IMRS records (≥ 10000)", replayed, s.Recovery.IMRSRecords)
	}
}
