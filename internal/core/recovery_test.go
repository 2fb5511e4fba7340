package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/row"
	"repro/internal/storage/disk"
	"repro/internal/wal"
)

// sharedStorage builds reusable in-memory devices so that a second Open
// sees exactly what the first engine made durable.
type sharedStorage struct {
	dev *disk.MemDevice
	sys *wal.MemBackend
	ims *wal.MemBackend
}

func newSharedStorage() *sharedStorage {
	return &sharedStorage{
		dev: disk.NewMemDevice(0, 0),
		sys: wal.NewMemBackend(),
		ims: wal.NewMemBackend(),
	}
}

func (s *sharedStorage) config(mut func(*Config)) Config {
	cfg := DefaultConfig()
	cfg.IMRSCacheBytes = 8 << 20
	cfg.BufferPoolPages = 256
	cfg.DataDevice = s.dev
	cfg.SysLogBackend = s.sys
	cfg.IMRSLogBackend = s.ims
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}

func TestRestartAfterCleanClose(t *testing.T) {
	st := newSharedStorage()
	e, err := Open(st.config(nil))
	if err != nil {
		t.Fatal(err)
	}
	createItems(t, e)
	tx := e.Begin()
	for i := int64(1); i <= 100; i++ {
		if err := tx.Insert("items", itemRow(i, fmt.Sprintf("n%d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(st.config(nil))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer e2.Close()
	if e2.Store().Rows() != 100 {
		t.Fatalf("recovered IMRS rows = %d, want 100", e2.Store().Rows())
	}
	tx2 := e2.Begin()
	for i := int64(1); i <= 100; i++ {
		rw, ok, err := tx2.Get("items", pk(i))
		if err != nil || !ok || rw[2].Int() != i {
			t.Fatalf("row %d after restart: %v %v %v", i, rw, ok, err)
		}
	}
	// Secondary index rebuilt.
	rows, err := tx2.LookupAll("items", "items_name", []row.Value{row.String("n50")})
	if err != nil || len(rows) != 1 {
		t.Fatalf("secondary lookup after restart: %d %v", len(rows), err)
	}
	mustCommit(t, tx2)

	// Engine usable for new writes, including fresh virtual RIDs that
	// must not collide with recovered ones.
	tx3 := e2.Begin()
	if err := tx3.Insert("items", itemRow(101, "new", 101)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx3)
}

func TestCrashRecoveryCommittedSurvivesUncommittedLost(t *testing.T) {
	st := newSharedStorage()
	e, err := Open(st.config(nil))
	if err != nil {
		t.Fatal(err)
	}
	createItems(t, e)

	tx := e.Begin()
	for i := int64(1); i <= 20; i++ {
		if err := tx.Insert("items", itemRow(i, "committed", i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	// In-flight transaction at crash time: must vanish.
	loser := e.Begin()
	if err := loser.Insert("items", itemRow(999, "loser", 0)); err != nil {
		t.Fatal(err)
	}
	e.Halt() // crash

	e2, err := Open(st.config(nil))
	if err != nil {
		t.Fatalf("crash recovery: %v", err)
	}
	defer e2.Close()
	tx2 := e2.Begin()
	for i := int64(1); i <= 20; i++ {
		rw, ok, err := tx2.Get("items", pk(i))
		if err != nil || !ok || rw[1].Str() != "committed" {
			t.Fatalf("committed row %d lost: %v %v %v", i, rw, ok, err)
		}
	}
	if _, ok, _ := tx2.Get("items", pk(999)); ok {
		t.Fatal("uncommitted row survived the crash")
	}
	mustCommit(t, tx2)
}

func TestCrashRecoveryMixedStores(t *testing.T) {
	st := newSharedStorage()
	e, err := Open(st.config(nil))
	if err != nil {
		t.Fatal(err)
	}
	createItems(t, e)
	prt := e.table0(t, "items")

	// Page-store rows.
	prt.ilm.Pin(false)
	tx := e.Begin()
	for i := int64(1); i <= 10; i++ {
		_ = tx.Insert("items", itemRow(i, "page", i))
	}
	mustCommit(t, tx)
	// IMRS rows plus an update and a delete spanning stores.
	prt.ilm.Pin(true)
	tx = e.Begin()
	for i := int64(11); i <= 20; i++ {
		_ = tx.Insert("items", itemRow(i, "imrs", i))
	}
	mustCommit(t, tx)
	tx = e.Begin()
	if _, err := tx.Update("items", pk(5), func(r row.Row) (row.Row, error) {
		r[2] = row.Int64(500) // migrates page row 5 into the IMRS
		return r, nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Delete("items", pk(15)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	e.Halt()

	e2, err := Open(st.config(nil))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer e2.Close()
	tx2 := e2.Begin()
	rw, ok, err := tx2.Get("items", pk(5))
	if err != nil || !ok || rw[2].Int() != 500 {
		t.Fatalf("migrated update lost: %v %v %v", rw, ok, err)
	}
	if _, ok, _ := tx2.Get("items", pk(15)); ok {
		t.Fatal("deleted row resurrected")
	}
	count := 0
	if err := tx2.ScanTable("items", func(row.Row) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 19 {
		t.Fatalf("scan after recovery = %d rows, want 19", count)
	}
	mustCommit(t, tx2)
}

func TestRecoveryAfterPack(t *testing.T) {
	st := newSharedStorage()
	cfg := st.config(func(c *Config) {
		c.IMRSCacheBytes = 1 << 20
		c.PackInterval = time.Hour
		c.ILM.InitialTSF = 1
		c.ILM.PackCyclePct = 0.50
	})
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	createItems(t, e)
	n := fillPastThreshold(t, e, 0.85)
	for i := 0; i < 100; i++ {
		e.Clock().Tick()
	}
	waitQueueLen(t, e, int(n))
	e.Packer().Step()
	if e.Packer().RowsPacked.Load() == 0 {
		t.Fatal("setup: nothing packed")
	}
	e.Halt() // crash right after pack

	e2, err := Open(st.config(func(c *Config) {
		c.IMRSCacheBytes = 4 << 20 // roomier on restart
	}))
	if err != nil {
		t.Fatalf("recovery after pack: %v", err)
	}
	defer e2.Close()
	tx := e2.Begin()
	for i := int64(1); i <= n; i++ {
		rw, ok, err := tx.Get("items", pk(i))
		if err != nil || !ok || rw[2].Int() != i {
			t.Fatalf("row %d after pack+crash: %v %v %v", i, rw, ok, err)
		}
	}
	mustCommit(t, tx)
}

func TestFileBackedRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Dir = dir
	cfg.IMRSCacheBytes = 8 << 20
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTable("kv", row.MustSchema(
		row.Column{Name: "k", Kind: row.KindString},
		row.Column{Name: "v", Kind: row.KindBytes},
	), []string{"k"}, catalog.PartitionSpec{}, nil); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	for i := 0; i < 50; i++ {
		if err := tx.Insert("kv", row.Row{
			row.String(fmt.Sprintf("key-%02d", i)),
			row.Bytes([]byte{byte(i)}),
		}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	cfg2 := DefaultConfig()
	cfg2.Dir = dir
	cfg2.IMRSCacheBytes = 8 << 20
	e2, err := Open(cfg2)
	if err != nil {
		t.Fatalf("file-backed reopen: %v", err)
	}
	defer e2.Close()
	tx2 := e2.Begin()
	for i := 0; i < 50; i++ {
		rw, ok, err := tx2.Get("kv", []row.Value{row.String(fmt.Sprintf("key-%02d", i))})
		if err != nil || !ok || rw[1].Raw()[0] != byte(i) {
			t.Fatalf("key %d after file reopen: %v %v %v", i, rw, ok, err)
		}
	}
	mustCommit(t, tx2)
}

func TestRangePartitionedTable(t *testing.T) {
	e := openEngine(t, nil)
	_, err := e.CreateTable("orders", testSchema(), []string{"id"},
		catalog.PartitionSpec{Kind: catalog.PartitionRange, Column: "id", Bounds: []int64{100, 200}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	for _, id := range []int64{5, 150, 500} {
		if err := tx.Insert("orders", itemRow(id, "o", id)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	// Rows land in distinct partitions.
	snap := e.Stats()
	withRows := 0
	for _, p := range snap.Partitions {
		if p.IMRSRows > 0 {
			withRows++
		}
	}
	if withRows != 3 {
		t.Fatalf("partitions with rows = %d, want 3", withRows)
	}
	tx2 := e.Begin()
	for _, id := range []int64{5, 150, 500} {
		if _, ok, _ := tx2.Get("orders", pk(id)); !ok {
			t.Fatalf("row %d missing across partitions", id)
		}
	}
	mustCommit(t, tx2)
}

// TestTxnIDsUniqueAcrossIncarnations guards against loser resurrection.
// Ops buffer until commit, so only transactions that reached commit
// processing appear in the logs — but a crash between the two logs'
// flushes leaves marker-less records behind, and a later transaction
// reusing that id would adopt them. Recovery therefore bumps the id
// allocator past every id it sees in either log; new transactions must
// start above the highest logged id.
func TestTxnIDsUniqueAcrossIncarnations(t *testing.T) {
	st := newSharedStorage()
	e, err := Open(st.config(nil))
	if err != nil {
		t.Fatal(err)
	}
	createItems(t, e)
	// Committed (logged) work, then an in-flight loser at crash time.
	tx := e.Begin()
	maxLoggedID := tx.ID()
	_ = tx.Insert("items", itemRow(1, "keep", 1))
	mustCommit(t, tx)
	loser := e.Begin()
	if err := loser.Insert("items", itemRow(666, "loser", 0)); err != nil {
		t.Fatal(err)
	}
	e.Halt()

	// Second incarnation: fresh transaction ids start above every id
	// that made it into the logs.
	e2, err := Open(st.config(nil))
	if err != nil {
		t.Fatal(err)
	}
	tx2 := e2.Begin()
	if tx2.ID() <= maxLoggedID {
		t.Fatalf("txn id %d collides with logged id %d", tx2.ID(), maxLoggedID)
	}
	if err := tx2.Insert("items", itemRow(2, "second", 2)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx2)
	e2.Halt()

	// Third incarnation: the loser must still be gone and the committed
	// rows intact.
	e3, err := Open(st.config(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	tx3 := e3.Begin()
	if _, ok, _ := tx3.Get("items", pk(666)); ok {
		t.Fatal("pre-crash loser resurrected")
	}
	for _, id := range []int64{1, 2} {
		if _, ok, _ := tx3.Get("items", pk(id)); !ok {
			t.Fatalf("committed row %d lost", id)
		}
	}
	mustCommit(t, tx3)
}

// TestZeroFilledTailRecovers: a crash on a filesystem that persists a
// size update before the data leaves zeros at the end of a log. An
// all-zero header reads as a 0-byte body with CRC 0 — and crc32 of
// nothing is 0 — so it must count as a torn frame: both logs, on both
// backends, recover to exactly their valid frames, and the repaired
// logs take new commits that the next recovery reads.
func TestZeroFilledTailRecovers(t *testing.T) {
	zeros := make([]byte, 4<<10)
	for _, tc := range []struct {
		name string
		// setup returns the config of the database and a function that
		// appends p to both of its logs and reports their sizes.
		setup func(t *testing.T) (Config, func(p []byte) (sys, ims int64))
	}{
		{"mem", func(t *testing.T) (Config, func([]byte) (int64, int64)) {
			st := newSharedStorage()
			return st.config(nil), func(p []byte) (int64, int64) {
				for _, b := range []*wal.MemBackend{st.sys, st.ims} {
					if _, err := b.Append(p); err != nil {
						t.Fatal(err)
					}
				}
				sys, _ := st.sys.Size()
				ims, _ := st.ims.Size()
				return sys, ims
			}
		}},
		{"file", func(t *testing.T) (Config, func([]byte) (int64, int64)) {
			cfg := DefaultConfig()
			cfg.Dir = t.TempDir()
			cfg.IMRSCacheBytes = 8 << 20
			cfg.BufferPoolPages = 256
			return cfg, func(p []byte) (int64, int64) {
				var sizes [2]int64
				for i, name := range []string{"syslogs.log", "sysimrslogs.log"} {
					f, err := os.OpenFile(filepath.Join(cfg.Dir, name), os.O_WRONLY|os.O_APPEND, 0)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.Write(p); err != nil {
						t.Fatal(err)
					}
					fi, err := f.Stat()
					if err != nil {
						t.Fatal(err)
					}
					sizes[i] = fi.Size()
					if err := f.Close(); err != nil {
						t.Fatal(err)
					}
				}
				return sizes[0], sizes[1]
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, appendBoth := tc.setup(t)
			e, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			createItems(t, e)
			for i := int64(1); i <= 3; i++ {
				tx := e.Begin()
				if err := tx.Insert("items", itemRow(i, fmt.Sprintf("n%d", i), i)); err != nil {
					t.Fatal(err)
				}
				mustCommit(t, tx)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			sys, ims := appendBoth(nil)
			appendBoth(zeros)

			e2, err := Open(cfg)
			if err != nil {
				t.Fatalf("open over a zero-filled tail: %v", err)
			}
			if got := e2.Stats().Recovery.Phases[0]; got.Name != PhaseTailRepair || got.Items != int64(2*len(zeros)) {
				t.Errorf("tail repair = %+v, want %d bytes discarded", got, 2*len(zeros))
			}
			tx := e2.Begin()
			for i := int64(1); i <= 3; i++ {
				if _, ok, err := tx.Get("items", pk(i)); err != nil || !ok {
					t.Fatalf("row %d after recovery: ok=%v err=%v", i, ok, err)
				}
			}
			if err := tx.Insert("items", itemRow(4, "n4", 4)); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, tx)
			if err := e2.Close(); err != nil {
				t.Fatal(err)
			}
			if sys2, ims2 := appendBoth(nil); sys2 <= sys || ims2 <= ims {
				t.Fatalf("log sizes %d/%d after repair and a commit, want past the valid prefix %d/%d", sys2, ims2, sys, ims)
			}

			e3, err := Open(cfg)
			if err != nil {
				t.Fatalf("reopen after repair: %v", err)
			}
			defer e3.Close()
			tx = e3.Begin()
			defer tx.Abort()
			for i := int64(1); i <= 4; i++ {
				if _, ok, err := tx.Get("items", pk(i)); err != nil || !ok {
					t.Fatalf("row %d after second recovery: ok=%v err=%v", i, ok, err)
				}
			}
		})
	}
}
