package hash

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/imrs"
	"repro/internal/rid"
)

func entry(i int) *imrs.Entry {
	return &imrs.Entry{RID: rid.NewVirtual(0, uint64(i))}
}

func TestPutGetDelete(t *testing.T) {
	ix := New(16)
	e := entry(1)
	k := []byte("alpha")
	if ix.Get(k) != nil {
		t.Fatal("empty index returned entry")
	}
	ix.Put(k, e)
	if ix.Get(k) != e {
		t.Fatal("Get after Put failed")
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d", ix.Len())
	}
	ix.Delete(k, e)
	if ix.Get(k) != nil {
		t.Fatal("entry survives delete")
	}
	if ix.Len() != 0 {
		t.Fatalf("Len = %d after delete", ix.Len())
	}
}

func TestPutReplaces(t *testing.T) {
	ix := New(16)
	k := []byte("k")
	e1, e2 := entry(1), entry(2)
	ix.Put(k, e1)
	ix.Put(k, e2)
	if ix.Get(k) != e2 {
		t.Fatal("Put did not replace")
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d after replace", ix.Len())
	}
}

func TestDeleteOnlyMatching(t *testing.T) {
	ix := New(16)
	k := []byte("k")
	e1, e2 := entry(1), entry(2)
	ix.Put(k, e1)
	ix.Delete(k, e2) // different entry: no-op
	if ix.Get(k) != e1 {
		t.Fatal("Delete removed non-matching entry")
	}
}

func TestPackedEntryReadsAbsent(t *testing.T) {
	ix := New(16)
	k := []byte("k")
	e := entry(1)
	ix.Put(k, e)
	e.MarkPacked()
	if ix.Get(k) != nil {
		t.Fatal("packed entry returned")
	}
}

func TestCollisions(t *testing.T) {
	// Tiny table forces chains.
	ix := New(1)
	const n = 1000
	entries := make([]*imrs.Entry, n)
	for i := 0; i < n; i++ {
		entries[i] = entry(i)
		ix.Put([]byte(fmt.Sprintf("key-%d", i)), entries[i])
	}
	for i := 0; i < n; i++ {
		if ix.Get([]byte(fmt.Sprintf("key-%d", i))) != entries[i] {
			t.Fatalf("key %d lost in chain", i)
		}
	}
	for i := 0; i < n; i += 2 {
		ix.Delete([]byte(fmt.Sprintf("key-%d", i)), entries[i])
	}
	for i := 0; i < n; i++ {
		got := ix.Get([]byte(fmt.Sprintf("key-%d", i)))
		if i%2 == 0 && got != nil {
			t.Fatalf("deleted key %d still present", i)
		}
		if i%2 == 1 && got != entries[i] {
			t.Fatalf("surviving key %d lost", i)
		}
	}
}

func TestConcurrentMixed(t *testing.T) {
	ix := New(64)
	var wg sync.WaitGroup
	const workers, per = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := []byte(fmt.Sprintf("w%d-k%d", w, i))
				e := entry(w*per + i)
				ix.Put(k, e)
				if got := ix.Get(k); got != e {
					t.Errorf("own key lost: %s", k)
					return
				}
				if i%3 == 0 {
					ix.Delete(k, e)
					if ix.Get(k) != nil {
						t.Errorf("deleted key visible: %s", k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestHitMissCounters(t *testing.T) {
	ix := New(16)
	ix.Put([]byte("a"), entry(1))
	ix.Get([]byte("a"))
	ix.Get([]byte("b"))
	if ix.Hits.Load() != 1 || ix.Misses.Load() != 1 {
		t.Fatalf("hits=%d misses=%d", ix.Hits.Load(), ix.Misses.Load())
	}
}

func TestOccupancy(t *testing.T) {
	ix := New(16) // floor is 256 buckets
	if ix.Buckets() != 256 {
		t.Fatalf("Buckets = %d, want 256", ix.Buckets())
	}
	if ix.LoadFactor() != 0 {
		t.Fatalf("empty LoadFactor = %v", ix.LoadFactor())
	}
	for i := 0; i < 384; i++ {
		ix.Put([]byte{byte(i), byte(i >> 8)}, entry(i))
	}
	if ix.Len() != 384 || ix.Buckets() <= 256 || ix.LoadFactor() > 1 {
		t.Fatalf("Len = %d Buckets = %d LoadFactor = %v: want 384 entries in a grown table at factor <= 1",
			ix.Len(), ix.Buckets(), ix.LoadFactor())
	}
	// New rounds up to a power of two above the floor.
	if got := New(300).Buckets(); got != 512 {
		t.Fatalf("Buckets(New(300)) = %d, want 512", got)
	}
}

func seqKey(i int) []byte { return binary.BigEndian.AppendUint64(nil, uint64(i)) }

func TestGrowth(t *testing.T) {
	const n = 200_000
	ix := New(256)
	entries := make([]*imrs.Entry, n)
	for i := range entries {
		entries[i] = entry(i)
		ix.Put(seqKey(i), entries[i])
		if i&(i+1) == 0 && ix.LoadFactor() > 1 { // at 1, 2, 4, ... entries
			t.Fatalf("LoadFactor = %v at %d entries", ix.LoadFactor(), i+1)
		}
	}
	if ix.Len() != n || ix.Buckets() < n || ix.LoadFactor() > 1 {
		t.Fatalf("Len = %d Buckets = %d LoadFactor = %v after %d puts", ix.Len(), ix.Buckets(), ix.LoadFactor(), n)
	}
	for i := range entries {
		if ix.Get(seqKey(i)) != entries[i] {
			t.Fatalf("key %d lost", i)
		}
	}
	grown := ix.Buckets()
	for i := 0; i < n; i += 2 {
		ix.Delete(seqKey(i), entries[i])
	}
	if ix.Len() != n/2 || ix.Buckets() != grown {
		t.Fatalf("Len = %d Buckets = %d after deleting half, want %d and %d (never shrinks)", ix.Len(), ix.Buckets(), n/2, grown)
	}
	for i := range entries {
		got := ix.Get(seqKey(i))
		if i%2 == 0 && got != nil {
			t.Fatalf("deleted key %d still present", i)
		}
		if i%2 == 1 && got != entries[i] {
			t.Fatalf("surviving key %d lost", i)
		}
	}
}

// Readers must find every key no writer touches while the writers push
// the table through its doublings: a reader may walk a stale bucket
// array, but never one that has lost a key.
func TestConcurrentGrowth(t *testing.T) {
	const writers, readers, per, fixed = 4, 4, 16000, 512
	ix := New(256) // ends with writers*per/2 live keys: 7 doublings
	start := ix.Buckets()
	fixedKey := func(i int) []byte { return []byte(fmt.Sprintf("fixed-%d", i)) }
	fixedEntries := make([]*imrs.Entry, fixed)
	model := map[string]*imrs.Entry{}
	for i := range fixedEntries {
		fixedEntries[i] = entry(-i - 1)
		ix.Put(fixedKey(i), fixedEntries[i])
		model[string(fixedKey(i))] = fixedEntries[i]
	}

	var done atomic.Bool
	var rg, wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			for i := r; !done.Load(); i++ {
				if k := i % fixed; ix.Get(fixedKey(k)) != fixedEntries[k] {
					t.Errorf("reader %d lost untouched key %d at %d buckets", r, k, ix.Buckets())
					return
				}
			}
		}(r)
	}
	models := make([]map[string]*imrs.Entry, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := map[string]*imrs.Entry{}
			for i := 0; i < per; i++ {
				k := []byte(fmt.Sprintf("w%d-k%d", w, i))
				e := entry(w*per + i)
				ix.Put(k, e)
				m[string(k)] = e
				if i%2 == 1 { // delete an older key of this writer's range
					old := fmt.Sprintf("w%d-k%d", w, i/2)
					ix.Delete([]byte(old), m[old])
					delete(m, old)
				}
			}
			models[w] = m
		}(w)
	}
	wg.Wait()
	done.Store(true)
	rg.Wait()

	for _, m := range models {
		for k, e := range m {
			model[k] = e
		}
	}
	if ix.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", ix.Len(), len(model))
	}
	for k, e := range model {
		if ix.Get([]byte(k)) != e {
			t.Fatalf("key %s differs from the model", k)
		}
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < per; i++ {
			k := fmt.Sprintf("w%d-k%d", w, i)
			if _, live := model[k]; !live && ix.Get([]byte(k)) != nil {
				t.Fatalf("deleted key %s still present", k)
			}
		}
	}
	if ix.Buckets() < start<<6 || ix.LoadFactor() > 1 {
		t.Fatalf("Buckets %d -> %d, LoadFactor %v: want >= 6 doublings at factor <= 1", start, ix.Buckets(), ix.LoadFactor())
	}
}

func TestGetDoesNotAllocate(t *testing.T) {
	ix := New(256)
	for i := 0; i < 10_000; i++ {
		ix.Put(seqKey(i), entry(i))
	}
	hit, miss := seqKey(4711), seqKey(1<<40)
	if n := testing.AllocsPerRun(1000, func() {
		if ix.Get(hit) == nil || ix.Get(miss) != nil {
			t.Fatal("wrong answer")
		}
	}); n != 0 {
		t.Fatalf("Get allocates %v times per hit+miss", n)
	}
}
