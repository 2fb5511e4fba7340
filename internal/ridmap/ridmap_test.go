package ridmap

import (
	"sync"
	"testing"

	"repro/internal/imrs"
	"repro/internal/rid"
)

func entry(r rid.RID) *imrs.Entry {
	return &imrs.Entry{RID: r}
}

func TestPutGetDelete(t *testing.T) {
	m := New()
	r := rid.NewPhysical(1, 2, 3)
	if m.Get(r) != nil {
		t.Fatal("empty map returned entry")
	}
	e := entry(r)
	if !m.Put(r, e) {
		t.Fatal("Put failed")
	}
	if m.Get(r) != e {
		t.Fatal("Get mismatch")
	}
	m.Delete(r, e)
	if m.Get(r) != nil {
		t.Fatal("entry survives delete")
	}
}

func TestPutRefusesLiveOverwrite(t *testing.T) {
	m := New()
	r := rid.NewPhysical(1, 2, 3)
	e1, e2 := entry(r), entry(r)
	if !m.Put(r, e1) {
		t.Fatal("first Put failed")
	}
	if m.Put(r, e2) {
		t.Fatal("Put over live entry should fail")
	}
	// After the first entry is packed, the slot is reusable.
	e1.MarkPacked()
	if m.Get(r) != nil {
		t.Fatal("packed entry should read as absent")
	}
	if !m.Put(r, e2) {
		t.Fatal("Put over packed entry should succeed")
	}
	if m.Get(r) != e2 {
		t.Fatal("replacement entry not returned")
	}
}

func TestDeleteOnlyMatchingEntry(t *testing.T) {
	m := New()
	r := rid.NewPhysical(1, 2, 3)
	e1, e2 := entry(r), entry(r)
	m.Put(r, e1)
	m.Delete(r, e2) // wrong entry: no-op
	if m.Get(r) != e1 {
		t.Fatal("Delete removed a non-matching entry")
	}
}

func TestRange(t *testing.T) {
	m := New()
	for i := 0; i < 100; i++ {
		r := rid.NewVirtual(1, uint64(i))
		m.Put(r, entry(r))
	}
	packed := entry(rid.NewVirtual(1, 1000))
	packed.MarkPacked()
	m.Put(rid.NewVirtual(1, 1000), packed)

	n := 0
	m.Range(func(r rid.RID, e *imrs.Entry) bool {
		if e.Packed() {
			t.Fatal("Range surfaced a packed entry")
		}
		n++
		return true
	})
	if n != 100 {
		t.Fatalf("Range visited %d, want 100", n)
	}
	// Early stop.
	n = 0
	m.Range(func(rid.RID, *imrs.Entry) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestLenSkipsPackedEntries(t *testing.T) {
	m := New()
	var packed []*imrs.Entry
	for i := 0; i < 10; i++ {
		r := rid.NewVirtual(1, uint64(i))
		e := entry(r)
		if !m.Put(r, e) {
			t.Fatal("Put failed")
		}
		if i%2 == 0 {
			packed = append(packed, e)
		}
	}
	for _, e := range packed {
		e.MarkPacked()
	}
	// Len agrees with what Get/Range expose; LenRaw counts the packed
	// entries still awaiting the GC sweep.
	if got := m.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5 live", got)
	}
	if got := m.LenRaw(); got != 10 {
		t.Fatalf("LenRaw = %d, want 10 published", got)
	}
	n := 0
	m.Range(func(rid.RID, *imrs.Entry) bool { n++; return true })
	if n != m.Len() {
		t.Fatalf("Range visited %d, Len = %d", n, m.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				r := rid.NewVirtual(rid.PartitionID(w), uint64(i))
				e := entry(r)
				if !m.Put(r, e) {
					t.Error("Put collision across distinct RIDs")
					return
				}
				if m.Get(r) != e {
					t.Error("Get after Put mismatch")
					return
				}
				if i%2 == 0 {
					m.Delete(r, e)
				}
			}
		}(w)
	}
	wg.Wait()
	if m.Len() != 8*1000 {
		t.Fatalf("Len = %d, want 8000", m.Len())
	}
}

// TestLeafChurnStress runs Put, Get and Delete on a sliding window of
// virtual RIDs beside RangeChunk walkers. The writers interleave their
// RIDs so that every leaf is shared, and the window is narrower than a
// leaf, so leaves are emptied, freed and allocated again while Puts
// race the frees. Each writer owns its RIDs, so an entry whose Put
// returned true must read back until its Delete and never after it.
func TestLeafChurnStress(t *testing.T) {
	const writers, window, seqs = 4, 8, 20_000
	m := New()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var walkers sync.WaitGroup
	for c := 0; c < 2; c++ {
		walkers.Add(1)
		go func() {
			defer walkers.Done()
			for i := 0; ; i = (i + 1) % Chunks {
				select {
				case <-stop:
					return
				default:
				}
				m.RangeChunk(i, func(r rid.RID, e *imrs.Entry) bool {
					if e.RID != r {
						t.Errorf("chunk %d visited %v under %v", i, e.RID, r)
					}
					return true
				})
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var live []*imrs.Entry
			for s := uint64(w); s < seqs; s += writers {
				r := rid.NewVirtual(1, s)
				e := entry(r)
				if !m.Put(r, e) {
					t.Errorf("Put %v refused on a free RID", r)
					return
				}
				live = append(live, e)
				if len(live) > window {
					old := live[0]
					live = live[1:]
					m.Delete(old.RID, old)
					if got := m.Get(old.RID); got != nil {
						t.Errorf("Get %v returned an entry after its Delete", old.RID)
						return
					}
				}
				for _, e := range live {
					if m.Get(e.RID) != e {
						t.Errorf("entry %v lost while live", e.RID)
						return
					}
				}
			}
			for _, e := range live {
				m.Delete(e.RID, e)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	walkers.Wait()
	if n := m.LenRaw(); n != 0 {
		t.Fatalf("LenRaw = %d after every Delete", n)
	}
	if n := m.leaves.Load(); n != 0 {
		t.Fatalf("%d leaves still allocated after every Delete", n)
	}
}

// TestPutRacesLeafFree puts and deletes two RIDs of one leaf from two
// goroutines, so the leaf's last entry leaves, and the leaf is freed,
// again and again while the other goroutine's Put is in flight.
func TestPutRacesLeafFree(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(r rid.RID) {
			defer wg.Done()
			for i := 0; i < 20_000; i++ {
				e := entry(r)
				if !m.Put(r, e) {
					t.Errorf("Put %v refused on a free RID", r)
					return
				}
				if m.Get(r) != e {
					t.Errorf("Put %v lost", r)
					return
				}
				m.Delete(r, e)
				if m.Get(r) != nil {
					t.Errorf("Get %v returned an entry after its Delete", r)
					return
				}
			}
		}(rid.NewPhysical(2, 9, uint16(w)))
	}
	wg.Wait()
	if n := m.leaves.Load(); n != 0 {
		t.Fatalf("%d leaves still allocated after every Delete", n)
	}
}

// TestChunksPartitionMap checks that chunks 0..Chunks-1 visit every
// live entry exactly once, physical and virtual, each chunk in RID
// order, and that Range visits them all in RID order.
func TestChunksPartitionMap(t *testing.T) {
	m := New()
	want := map[rid.RID]*imrs.Entry{}
	put := func(r rid.RID) {
		e := entry(r)
		if !m.Put(r, e) {
			t.Fatalf("Put %v failed", r)
		}
		want[r] = e
	}
	for p := rid.PartitionID(1); p <= 3; p++ {
		for s := uint64(0); s < 5_000; s += 3 {
			put(rid.NewVirtual(p, s))
		}
		for pg := rid.PageID(100); pg < 400; pg += 7 {
			for sl := uint16(0); sl < 60; sl += 5 {
				put(rid.NewPhysical(p, pg, sl))
			}
		}
		put(rid.NewPhysical(p, 20_000, 2041))
	}
	packed := entry(rid.NewVirtual(1, 1))
	packed.MarkPacked()
	m.Put(packed.RID, packed)

	seen := map[rid.RID]int{}
	for i := 0; i < Chunks; i++ {
		var last rid.RID
		m.RangeChunk(i, func(r rid.RID, e *imrs.Entry) bool {
			if want[r] != e {
				t.Fatalf("chunk %d visited %v with a foreign entry", i, r)
			}
			if last != 0 && r <= last {
				t.Fatalf("chunk %d visited %v after %v", i, r, last)
			}
			last = r
			seen[r]++
			return true
		})
	}
	for r := range want {
		if seen[r] != 1 {
			t.Fatalf("%v visited %d times over the chunks", r, seen[r])
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("chunks visited %d entries, want %d", len(seen), len(want))
	}
	var last rid.RID
	n := 0
	m.Range(func(r rid.RID, _ *imrs.Entry) bool {
		if n > 0 && r <= last {
			t.Fatalf("Range visited %v after %v", r, last)
		}
		last, n = r, n+1
		return true
	})
	if n != len(want) {
		t.Fatalf("Range visited %d, want %d", n, len(want))
	}
}

// TestFootprintFollowsLiveRows slides a window of 10 k virtual RIDs
// over 10 M sequence numbers (1 M under the race detector, which adds
// nothing to one goroutine's run but time): the leaves and the
// directory stay the size of the window, not of the sequence. Physical
// RIDs spread over pages cost at most a leaf per page, not one per slot.
func TestFootprintFollowsLiveRows(t *testing.T) {
	const width = 10_000
	seqs := uint64(10_000_000)
	if raceEnabled {
		seqs /= 10
	}
	m := New()
	ring := make([]*imrs.Entry, width)
	for i := range ring {
		ring[i] = &imrs.Entry{}
	}
	maxLeaves := int64(width/leafWidth + 2)
	for s := uint64(0); s < seqs; s++ {
		e := ring[s%width]
		if s >= width {
			m.Delete(rid.NewVirtual(1, s-width), e)
		}
		if !m.Put(rid.NewVirtual(1, s), e) {
			t.Fatalf("Put of seq %d failed", s)
		}
		if s%100_000 == 0 {
			if n := m.leaves.Load(); n > maxLeaves {
				t.Fatalf("%d leaves for a %d-RID window at seq %d, want ≤ %d", n, width, s, maxLeaves)
			}
			if d := m.dirOf(rid.NewVirtual(1, s)); len(d.leaves) > 4*int(maxLeaves)+minDir {
				t.Fatalf("directory of %d leaves for a %d-RID window at seq %d", len(d.leaves), width, s)
			}
		}
	}
	if n := m.Len(); n != width {
		t.Fatalf("Len = %d, want %d", n, width)
	}

	p := New()
	const pages, perPage = 1_000, 50
	for pg := 0; pg < pages; pg++ {
		for sl := 0; sl < perPage; sl++ {
			r := rid.NewPhysical(1, rid.PageID(1_000+pg*37), uint16(sl))
			p.Put(r, entry(r))
		}
	}
	if n := p.leaves.Load(); n > pages {
		t.Fatalf("%d leaves for %d pages of %d slots, want ≤ one per page", n, pages, perPage)
	}
}

// dirOf returns the directory of r's table.
func (m *Map) dirOf(r rid.RID) *dir {
	t, _ := m.locate(r)
	return t.dir.Load()
}

// TestRIDMapZeroAllocs gates the map's allocations: Get allocates
// nothing, hit or miss, and Puts of sequential RIDs allocate at most a
// leaf per leafWidth RIDs, the directory's growth included.
func TestRIDMapZeroAllocs(t *testing.T) {
	m := New()
	const runs = 200
	ents := make([]*imrs.Entry, runs*leafWidth)
	for i := range ents {
		ents[i] = entry(rid.NewVirtual(1, uint64(i)))
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		for j := 0; j < leafWidth; j++ {
			m.Put(ents[next%len(ents)].RID, ents[next%len(ents)])
			next++
		}
	}); n > 1 {
		t.Fatalf("Put allocates %v per %d sequential RIDs, want ≤ 1", n, leafWidth)
	}
	var sink *imrs.Entry
	if n := testing.AllocsPerRun(1000, func() {
		sink = m.Get(ents[next%len(ents)].RID)
		sink = m.Get(rid.NewPhysical(1, 5, 5))
		sink = m.Get(rid.NewVirtual(9, 5))
		next += 7919
	}); n != 0 {
		t.Fatalf("Get allocates %v, want 0", n)
	}
	_ = sink
}
