package imrsgc

import (
	"testing"
	"time"

	"repro/internal/imrs"
	"repro/internal/rid"
	"repro/internal/txn"
)

func fixture(t *testing.T) (*imrs.Store, *txn.SnapshotRegistry) {
	t.Helper()
	return imrs.NewStore(8 << 20), txn.NewSnapshotRegistry()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestVersionReclaim(t *testing.T) {
	store, snaps := fixture(t)
	g := New(store, snaps, Hooks{})
	g.Start()
	defer g.Stop()

	e, err := store.CreateEntry(rid.NewVirtual(1, 1), 1, imrs.OriginInserted, []byte("v1"), 10)
	if err != nil {
		t.Fatal(err)
	}
	v1 := e.Head()
	store.Commit(v1, 5)
	v2, err := store.AddVersion(e, []byte("v2"), 11)
	if err != nil {
		t.Fatal(err)
	}
	store.Commit(v2, 8)

	before := store.Part(1).Bytes.Load()
	g.RetireVersion(e, v2, v1)
	waitFor(t, "version free", func() bool { return g.VersionsFreed.Load() == 1 })
	if store.Part(1).Bytes.Load() >= before {
		t.Fatal("partition bytes did not shrink")
	}
	if v2.Older() != nil {
		t.Fatal("chain not truncated")
	}
	if got := e.Visible(100, 0); got == nil || string(got.Data()) != "v2" {
		t.Fatal("newest version damaged by reclamation")
	}
}

// TestReclaimWaitsForSnapshots pins the reclamation rule: a reader
// registered before the retire blocks the free until it unregisters,
// while a reader that registers after the retire's pass holds nothing
// back.
func TestReclaimWaitsForSnapshots(t *testing.T) {
	store, snaps := fixture(t)
	g := New(store, snaps, Hooks{})
	g.Start()
	defer g.Stop()

	e, _ := store.CreateEntry(rid.NewVirtual(1, 1), 1, imrs.OriginInserted, []byte("v1"), 10)
	v1 := e.Head()
	store.Commit(v1, 5)
	v2, _ := store.AddVersion(e, []byte("v2"), 11)
	store.Commit(v2, 8)

	reader := snaps.Register(g.Epoch()) // began before the retire: may hold v1
	g.RetireVersion(e, v2, v1)
	g.Drain()
	if g.VersionsFreed.Load() != 0 {
		t.Fatal("version freed while a reader registered before its retire was active")
	}
	if got := e.Visible(6, 0); got == nil || string(got.Data()) != "v1" {
		t.Fatal("old snapshot lost its version")
	}
	late := snaps.Register(g.Epoch()) // after the pass that tagged the retire
	defer snaps.Unregister(late)
	snaps.Unregister(reader)
	g.Drain()
	if g.VersionsFreed.Load() != 1 {
		t.Fatal("a reader registered after the retire's pass held back its free")
	}
}

func TestEntryReclaimWithHooks(t *testing.T) {
	store, snaps := fixture(t)
	reclaimed := make(chan *imrs.Entry, 1)
	g := New(store, snaps, Hooks{
		OnReclaimEntry: func(e *imrs.Entry) { reclaimed <- e },
	})
	g.Start()
	defer g.Stop()

	e, _ := store.CreateEntry(rid.NewVirtual(1, 1), 1, imrs.OriginInserted, []byte("row"), 10)
	store.Commit(e.Head(), 5)
	ts := store.AddTombstone(e, 11)
	store.Commit(ts, 9)
	e.MarkPacked()
	g.RetireEntry(e)

	select {
	case got := <-reclaimed:
		if got != e {
			t.Fatal("wrong entry reclaimed")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnReclaimEntry never called")
	}
	waitFor(t, "entry free", func() bool { return g.EntriesFreed.Load() == 1 })
	if store.Rows() != 0 || store.Allocator().Used() != 0 {
		t.Fatalf("entry memory leaked: rows=%d used=%d", store.Rows(), store.Allocator().Used())
	}
}

func TestNewRowQueueMaintenance(t *testing.T) {
	store, snaps := fixture(t)
	var q imrs.Queue
	g := New(store, snaps, Hooks{
		OnNewRow: func(e *imrs.Entry) { q.PushTail(e) },
	})
	g.Start()
	defer g.Stop()

	var entries []*imrs.Entry
	for i := 0; i < 10; i++ {
		e, _ := store.CreateEntry(rid.NewVirtual(1, uint64(i)), 1, imrs.OriginInserted, []byte("r"), 10)
		store.Commit(e.Head(), uint64(i+1))
		entries = append(entries, e)
		g.NewRow(e)
		// One pass per row: passes are FIFO, while rows drained in the
		// same pass follow the order of the retire stripes.
		g.Drain()
	}
	waitFor(t, "queue maintenance", func() bool { return q.Len() == 10 })
	// FIFO order preserved.
	for i := 0; i < 10; i++ {
		if q.PopHead() != entries[i] {
			t.Fatalf("queue order broken at %d", i)
		}
	}
}

func TestPackedNewRowNotEnqueued(t *testing.T) {
	store, snaps := fixture(t)
	var q imrs.Queue
	g := New(store, snaps, Hooks{OnNewRow: func(e *imrs.Entry) { q.PushTail(e) }})

	e, _ := store.CreateEntry(rid.NewVirtual(1, 1), 1, imrs.OriginInserted, []byte("r"), 10)
	store.Commit(e.Head(), 1)
	e.MarkPacked() // packed before GC got to it
	g.NewRow(e)
	g.Drain()
	if q.Len() != 0 {
		t.Fatal("packed entry enqueued")
	}
}

func TestStopDrains(t *testing.T) {
	store, snaps := fixture(t)
	g := New(store, snaps, Hooks{})
	g.Start()
	e, _ := store.CreateEntry(rid.NewVirtual(1, 1), 1, imrs.OriginInserted, []byte("v1"), 10)
	v1 := e.Head()
	store.Commit(v1, 5)
	v2, _ := store.AddVersion(e, []byte("v2"), 11)
	store.Commit(v2, 8)
	g.RetireVersion(e, v2, v1)
	g.Stop()
	if g.VersionsFreed.Load() != 1 {
		t.Fatal("Stop did not drain reclaimable work")
	}
}
