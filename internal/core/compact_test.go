package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/row"
	"repro/internal/wal"
)

// genStorage is sharedStorage plus an in-memory generation factory, so
// compaction can be tested across simulated crashes. With slow set, a
// fresh generation syncs on a slow device (slowSync).
type genStorage struct {
	*sharedStorage
	slow bool
	mu   sync.Mutex
	gens map[uint64]*wal.MemBackend
}

func newGenStorage() *genStorage {
	return &genStorage{sharedStorage: newSharedStorage(), gens: map[uint64]*wal.MemBackend{}}
}

func (g *genStorage) config(mut func(*Config)) Config {
	cfg := g.sharedStorage.config(mut)
	cfg.IMRSLogFactory = func(gen uint64, fresh bool) (wal.Backend, error) {
		if gen == 0 {
			return g.ims, nil
		}
		g.mu.Lock()
		defer g.mu.Unlock()
		if b, ok := g.gens[gen]; ok && !fresh {
			return b, nil
		}
		b := wal.NewMemBackend()
		g.gens[gen] = b
		if g.slow {
			return &slowSync{Backend: b}, nil
		}
		return b, nil
	}
	return cfg
}

func TestIMRSLogCompaction(t *testing.T) {
	st := newGenStorage()
	e, err := Open(st.config(nil))
	if err != nil {
		t.Fatal(err)
	}
	createItems(t, e)

	// Heavy churn: every row updated many times, half then deleted — the
	// raw log holds all of it; live content is a fraction.
	tx := e.Begin()
	for i := int64(1); i <= 100; i++ {
		if err := tx.Insert("items", itemRow(i, fmt.Sprintf("v0-%d", i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	for round := 0; round < 10; round++ {
		tx := e.Begin()
		for i := int64(1); i <= 100; i++ {
			if _, err := tx.Update("items", pk(i), func(r row.Row) (row.Row, error) {
				r[1] = row.String(fmt.Sprintf("v%d-%d", round+1, i))
				r[2] = row.Int64(int64(round + 1))
				return r, nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)
	}
	tx = e.Begin()
	for i := int64(51); i <= 100; i++ {
		if _, err := tx.Delete("items", pk(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	before := e.IMRSLogBytes()
	if err := e.CompactIMRSLog(); err != nil {
		t.Fatal(err)
	}
	after := e.IMRSLogBytes()
	if e.IMRSLogGeneration() != 1 {
		t.Fatalf("generation = %d, want 1", e.IMRSLogGeneration())
	}
	if after >= before/4 {
		t.Fatalf("compaction barely shrank the log: %d -> %d", before, after)
	}

	// Data unchanged after compaction.
	tx2 := e.Begin()
	for i := int64(1); i <= 50; i++ {
		rw, ok, err := tx2.Get("items", pk(i))
		if err != nil || !ok || rw[1].Str() != fmt.Sprintf("v10-%d", i) {
			t.Fatalf("row %d after compaction: %v %v %v", i, rw, ok, err)
		}
	}
	if _, ok, _ := tx2.Get("items", pk(75)); ok {
		t.Fatal("deleted row revived by compaction")
	}
	mustCommit(t, tx2)

	// New writes land in the compacted generation.
	tx3 := e.Begin()
	if err := tx3.Insert("items", itemRow(200, "post-compact", 200)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx3)

	// Crash + recover: the checkpoint pins generation 1.
	e.Halt()
	e2, err := Open(st.config(nil))
	if err != nil {
		t.Fatalf("recovery from compacted generation: %v", err)
	}
	defer e2.Close()
	if e2.IMRSLogGeneration() != 1 {
		t.Fatalf("recovered generation = %d, want 1", e2.IMRSLogGeneration())
	}
	tx4 := e2.Begin()
	for i := int64(1); i <= 50; i++ {
		rw, ok, err := tx4.Get("items", pk(i))
		if err != nil || !ok || rw[1].Str() != fmt.Sprintf("v10-%d", i) {
			t.Fatalf("row %d after crash: %v %v %v", i, rw, ok, err)
		}
	}
	rw, ok, err := tx4.Get("items", pk(200))
	if err != nil || !ok || rw[1].Str() != "post-compact" {
		t.Fatalf("post-compaction write lost: %v %v %v", rw, ok, err)
	}
	if _, ok, _ := tx4.Get("items", pk(75)); ok {
		t.Fatal("deleted row revived after crash")
	}
	mustCommit(t, tx4)
}

// TestCompactionRepeatable compacts three times, then checks that the
// last generation, swapped in on a slow device, still gathers two
// closed-loop writers into shared syncs: compaction hands the new log
// the engine's count of writers in flight.
func TestCompactionRepeatable(t *testing.T) {
	st := newGenStorage()
	st.slow = true
	e, err := Open(st.config(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	createItems(t, e)
	for gen := uint64(1); gen <= 3; gen++ {
		tx := e.Begin()
		if err := tx.Insert("items", itemRow(int64(gen), "x", int64(gen))); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
		if err := e.CompactIMRSLog(); err != nil {
			t.Fatal(err)
		}
		if e.IMRSLogGeneration() != gen {
			t.Fatalf("generation = %d, want %d", e.IMRSLogGeneration(), gen)
		}
	}
	tx := e.Begin()
	n := 0
	_ = tx.ScanTable("items", func(row.Row) bool { n++; return true })
	mustCommit(t, tx)
	if n != 3 {
		t.Fatalf("rows after repeated compaction = %d, want 3", n)
	}
	createHotCold(t, e)
	assertGathersPeers(t, e, 1_000_000)
}

func TestCompactionWithoutFactoryFails(t *testing.T) {
	st := newSharedStorage() // no factory
	e, err := Open(st.config(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.CompactIMRSLog(); err != ErrNoLogFactory {
		t.Fatalf("err = %v, want ErrNoLogFactory", err)
	}
}

func TestFileBackedCompaction(t *testing.T) {
	dir := t.TempDir()
	mk := func() Config {
		cfg := DefaultConfig()
		cfg.Dir = dir
		cfg.IMRSCacheBytes = 8 << 20
		return cfg
	}
	e, err := Open(mk())
	if err != nil {
		t.Fatal(err)
	}
	createItems(t, e)
	tx := e.Begin()
	for i := int64(1); i <= 30; i++ {
		if err := tx.Insert("items", itemRow(i, "file", i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	if err := e.CompactIMRSLog(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(mk())
	if err != nil {
		t.Fatalf("reopen after file compaction: %v", err)
	}
	defer e2.Close()
	tx2 := e2.Begin()
	for i := int64(1); i <= 30; i++ {
		if _, ok, _ := tx2.Get("items", pk(i)); !ok {
			t.Fatalf("row %d lost across compacted restart", i)
		}
	}
	mustCommit(t, tx2)
}
