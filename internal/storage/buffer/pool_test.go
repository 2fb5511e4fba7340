package buffer

import (
	"sync"
	"testing"

	"repro/internal/storage/disk"
	"repro/internal/storage/page"
)

func newPool(t *testing.T, capacity int) (*Pool, *disk.MemDevice) {
	t.Helper()
	dev := disk.NewMemDevice(0, 0)
	t.Cleanup(func() { dev.Close() })
	p, err := NewPool(dev, capacity, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p, dev
}

func TestNewPageAndFetch(t *testing.T) {
	p, _ := newPool(t, 4)
	id, f, err := p.NewPage(page.TypeHeap)
	if err != nil {
		t.Fatal(err)
	}
	slot, err := f.Page().Insert([]byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	f.Unlatch(true)
	p.Unpin(f, true)

	f2, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	f2.Latch(false)
	rec, err := f2.Page().Read(slot)
	if err != nil || string(rec) != "abc" {
		t.Fatalf("Read = %q, %v", rec, err)
	}
	f2.Unlatch(false)
	p.Unpin(f2, false)
	if p.Stats().Hits.Load() != 1 {
		t.Fatalf("hits = %d, want 1", p.Stats().Hits.Load())
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	p, dev := newPool(t, 2)
	// Create 3 pages through a 2-frame pool; first page must be evicted
	// and written back.
	var ids []uint32
	for i := 0; i < 3; i++ {
		id, f, err := p.NewPage(page.TypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.Page().Insert([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		f.Unlatch(true)
		p.Unpin(f, true)
		ids = append(ids, id)
	}
	if p.Stats().Evictions.Load() == 0 {
		t.Fatal("expected an eviction")
	}
	// Re-fetch the first page: content must have survived the round trip.
	f, err := p.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	f.Latch(false)
	rec, err := f.Page().Read(0)
	if err != nil || rec[0] != 0 {
		t.Fatalf("evicted page content lost: %v %v", rec, err)
	}
	f.Unlatch(false)
	p.Unpin(f, false)
	if dev.Stats().Writes.Load() == 0 {
		t.Fatal("no device writes recorded")
	}
}

func TestAllPinnedOverflows(t *testing.T) {
	p, _ := newPool(t, 2)
	var frames []*Frame
	for i := 0; i < 2; i++ {
		_, f, err := p.NewPage(page.TypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		f.Unlatch(true)
		frames = append(frames, f) // keep pinned
	}
	_, f, err := p.NewPage(page.TypeHeap)
	if err != nil {
		t.Fatalf("NewPage with all frames pinned failed: %v", err)
	}
	f.Unlatch(true)
	p.Unpin(f, true)
	if got := p.Stats().Overflows.Load(); got != 1 {
		t.Fatalf("Overflows = %d, want 1", got)
	}
	for _, f := range frames {
		p.Unpin(f, true)
	}
	if _, _, err := p.NewPage(page.TypeHeap); err != nil {
		t.Fatalf("NewPage after unpin failed: %v", err)
	}
	if got := p.Stats().Overflows.Load(); got != 1 {
		t.Fatalf("Overflows = %d after unpin, want still 1", got)
	}
}

func TestFlushGateOrdering(t *testing.T) {
	dev := disk.NewMemDevice(0, 0)
	defer dev.Close()
	var gateLSNs []uint64
	pool, err := NewPool(dev, 2, func(lsn uint64) error {
		gateLSNs = append(gateLSNs, lsn)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, f, err := pool.NewPage(page.TypeHeap)
	if err != nil {
		t.Fatal(err)
	}
	f.Page().SetLSN(42)
	f.Unlatch(true)
	pool.Unpin(f, true)
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if len(gateLSNs) != 1 || gateLSNs[0] != 42 {
		t.Fatalf("gate LSNs = %v, want [42]", gateLSNs)
	}
}

func TestConcurrentFetchers(t *testing.T) {
	p, _ := newPool(t, 8)
	id, f, err := p.NewPage(page.TypeHeap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Page().Insert(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	f.Unlatch(true)
	p.Unpin(f, true)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				fr, err := p.Fetch(id)
				if err != nil {
					t.Error(err)
					return
				}
				fr.Latch(true)
				rec, err := fr.Page().Read(0)
				if err == nil {
					rec[0]++
					fr.MarkDirty()
				}
				fr.Unlatch(true)
				p.Unpin(fr, true)
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	fr, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	fr.Latch(false)
	rec, _ := fr.Page().Read(0)
	got := rec[0]
	fr.Unlatch(false)
	p.Unpin(fr, false)
	if got != byte(8*1000%256) {
		t.Fatalf("lost increments: %d, want %d", got, byte(8*1000%256))
	}
}

func TestLatchContentionCounted(t *testing.T) {
	p, _ := newPool(t, 2)
	_, f, err := p.NewPage(page.TypeHeap)
	if err != nil {
		t.Fatal(err)
	}
	// f is latched exclusively; a second exclusive latch must wait.
	done := make(chan struct{})
	go func() {
		waited := f.Latch(true)
		if !waited {
			t.Error("second latch should report waiting")
		}
		f.Unlatch(true)
		close(done)
	}()
	// Give the goroutine time to block, then release.
	for p.Stats().LatchWaits.Load() == 0 {
	}
	f.Unlatch(true)
	<-done
	p.Unpin(f, true)
	if p.Stats().LatchWaits.Load() == 0 {
		t.Fatal("latch wait not counted")
	}
}

func TestNewPoolRejectsBadCapacity(t *testing.T) {
	dev := disk.NewMemDevice(0, 0)
	defer dev.Close()
	if _, err := NewPool(dev, 0, nil); err == nil {
		t.Fatal("capacity 0 should fail")
	}
}

func TestTryLatchAndUpgrade(t *testing.T) {
	p, _ := newPool(t, 4)
	id, f, err := p.NewPage(page.TypeHeap)
	if err != nil {
		t.Fatal(err)
	}
	// NewPage returns the frame exclusively latched: nothing else can
	// take it.
	if f.TryLatch(false) || f.TryLatch(true) {
		t.Fatal("TryLatch succeeded against a held exclusive latch")
	}
	f.Unlatch(true)

	// Shared latches stack; exclusive does not.
	if !f.TryLatch(false) {
		t.Fatal("TryLatch(shared) failed on a free frame")
	}
	if !f.TryLatch(false) {
		t.Fatal("second shared TryLatch failed")
	}
	if f.TryLatch(true) {
		t.Fatal("exclusive TryLatch succeeded over shared holders")
	}
	f.Unlatch(false)

	// Upgrade trades the remaining shared latch for exclusive.
	if waited := f.Upgrade(); waited {
		t.Fatal("uncontended Upgrade reported a wait")
	}
	if f.TryLatch(false) {
		t.Fatal("shared TryLatch succeeded after Upgrade")
	}
	f.Unlatch(true)
	p.Unpin(f, false)

	ff, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(ff, false)
}

func TestNoteIndexWaitClamps(t *testing.T) {
	p, _ := newPool(t, 2)
	st := p.Stats()
	st.NoteIndexWait(0)
	st.NoteIndexWait(2)
	st.NoteIndexWait(IndexLatchLevels - 1)
	st.NoteIndexWait(IndexLatchLevels + 5) // clamps into the last bucket
	st.NoteIndexWait(-1)                   // clamps to the root bucket
	got := st.IndexWaitsByLevel()
	if len(got) != IndexLatchLevels {
		t.Fatalf("levels = %d, want %d", len(got), IndexLatchLevels)
	}
	if got[0] != 2 || got[2] != 1 || got[IndexLatchLevels-1] != 2 {
		t.Fatalf("per-level waits = %v", got)
	}
}

func TestFlushAllConcurrentWithLatchedFetches(t *testing.T) {
	// Regression: FlushAll used to hold the pool mutex while taking frame
	// latches, deadlocking against traversals that hold a frame latch
	// while fetching the next page (frame latch -> pool mutex).
	p, _ := newPool(t, 2)
	var ids []uint32
	for i := 0; i < 6; i++ {
		id, f, err := p.NewPage(page.TypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		f.Unlatch(true)
		p.Unpin(f, true)
		ids = append(ids, id)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				a := ids[(seed+i)%len(ids)]
				b := ids[(seed+i+1)%len(ids)]
				fa, err := p.Fetch(a)
				if err != nil {
					t.Errorf("fetch: %v", err)
					return
				}
				fa.Latch(false)
				// Crab: fetch b while holding a's latch.
				fb, err := p.Fetch(b)
				if err != nil {
					fa.Unlatch(false)
					p.Unpin(fa, false)
					t.Errorf("fetch under latch: %v", err)
					return
				}
				fb.Latch(false)
				fa.Unlatch(false)
				p.Unpin(fa, false)
				fb.Unlatch(false)
				p.Unpin(fb, false)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := p.FlushAll(); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestFramePageAllocs gates Frame.Page: the frame keeps its page value
// for its whole life and hands out a pointer to it, so fetching a
// cached page and reading it through Page allocates nothing.
func TestFramePageAllocs(t *testing.T) {
	p, _ := newPool(t, 4)
	id, f, err := p.NewPage(page.TypeHeap)
	if err != nil {
		t.Fatal(err)
	}
	slot, err := f.Page().Insert([]byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	f.Unlatch(true)
	p.Unpin(f, true)

	avg := testing.AllocsPerRun(1000, func() {
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		f.Latch(false)
		if rec, err := f.Page().Read(slot); err != nil || string(rec) != "abc" {
			t.Fatalf("Read = %q, %v", rec, err)
		}
		if f.Page() != f.Page() {
			t.Fatal("Page returns a new page on every call")
		}
		f.Unlatch(false)
		p.Unpin(f, false)
	})
	if avg != 0 {
		t.Fatalf("fetch + Page allocates %.1f per call, want 0", avg)
	}
}
