package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/rid"
	"repro/internal/storage/buffer"
	"repro/internal/storage/disk"
)

// stressPool builds a deliberately tiny pool so traversals constantly
// miss and evict — the latch-coupling path that matters. No-steal lets
// the pool grow instead of failing when every frame is pinned by a
// concurrent traversal.
func stressPool(t testing.TB, frames int) *buffer.Pool {
	t.Helper()
	dev := disk.NewMemDevice(0, 0)
	pool, err := buffer.NewPool(dev, frames, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool.SetNoSteal(true)
	return pool
}

// stressKey pads keys to 64 bytes so a few thousand of them spread over
// far more leaves than the stress pool has frames.
func stressKey(i int) []byte {
	b := make([]byte, 64)
	b[0] = 'k'
	binary.BigEndian.PutUint64(b[1:9], uint64(i))
	for j := 9; j < len(b); j++ {
		b[j] = byte('a' + j%13)
	}
	return b
}

// TestStressConcurrent hammers one tree with parallel inserters,
// deleters, point readers, and scanners over an eviction-heavy pool,
// then verifies nothing was lost: every key either survived with its
// exact RID or was provably deleted by its owner.
func TestStressConcurrent(t *testing.T) {
	pool := stressPool(t, 4)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	keysPerOwner := 1200
	readers := 4
	if testing.Short() {
		keysPerOwner = 500
		readers = 2
	}

	// Each writer owns a disjoint key range: inserts all of them, deletes
	// an owner-chosen subset, so the final expected state is exact.
	deleted := make([]map[int]bool, writers)
	var writerWG, bgWG sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		deleted[w] = make(map[int]bool)
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			base := w * keysPerOwner
			for i := 0; i < keysPerOwner; i++ {
				k := base + rng.Intn(keysPerOwner) // racey duplicate attempts
				err := tr.Insert(stressKey(k), rid.RID(k+1))
				if err != nil && !errors.Is(err, ErrDuplicate) {
					t.Errorf("insert %d: %v", k, err)
					return
				}
				// Checkpoint from inside the load too: on GOMAXPROCS=1 the
				// background flusher may never be scheduled, and without
				// clean frames a no-steal pool cannot evict at all.
				if i%127 == 0 {
					if err := pool.FlushAll(); err != nil {
						t.Errorf("flush: %v", err)
						return
					}
				}
			}
			// Fill any gaps the random walk skipped.
			for i := base; i < base+keysPerOwner; i++ {
				err := tr.Insert(stressKey(i), rid.RID(i+1))
				if err != nil && !errors.Is(err, ErrDuplicate) {
					t.Errorf("insert %d: %v", i, err)
					return
				}
			}
			// Delete a subset; interleave updates on survivors.
			for i := base; i < base+keysPerOwner; i++ {
				switch i % 3 {
				case 0:
					if _, found, err := tr.Delete(stressKey(i)); err != nil || !found {
						t.Errorf("delete %d: found=%v err=%v", i, found, err)
						return
					}
					deleted[w][i] = true
				case 1:
					if found, err := tr.Update(stressKey(i), rid.RID(i+1)); err != nil || !found {
						t.Errorf("update %d: found=%v err=%v", i, found, err)
						return
					}
				}
			}
		}(w)
	}

	// Background checkpointer: no-steal never evicts dirty pages, so keep
	// flushing to make frames clean and evictable — that is what forces
	// traversals to re-read pages from the device mid-flight.
	bgWG.Add(1)
	go func() {
		defer bgWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := pool.FlushAll(); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
		}
	}()

	// Point readers: any hit must carry the exact RID for its key.
	for r := 0; r < readers; r++ {
		bgWG.Add(1)
		go func(seed int) {
			defer bgWG.Done()
			rng := rand.New(rand.NewSource(int64(1000 + seed)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Intn(writers * keysPerOwner)
				got, found, err := tr.Search(stressKey(k))
				if err != nil {
					t.Errorf("search %d: %v", k, err)
					return
				}
				if found && got != rid.RID(k+1) {
					t.Errorf("search %d: rid %d, want %d", k, got, k+1)
					return
				}
			}
		}(r)
	}

	// Scanners: keys must come back in strictly ascending order even
	// while leaves split underneath, and every RID must match its key.
	for s := 0; s < 2; s++ {
		bgWG.Add(1)
		go func() {
			defer bgWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var prev []byte
				err := tr.ScanFrom(nil, func(k []byte, r rid.RID) bool {
					if prev != nil && bytes.Compare(k, prev) >= 0 == false {
						t.Errorf("scan went backward: %x after %x", k, prev)
						return false
					}
					if prev != nil && bytes.Equal(k, prev) {
						t.Errorf("scan yielded duplicate key %x", k)
						return false
					}
					i := int(binary.BigEndian.Uint64(k[1:9]))
					if r != rid.RID(i+1) {
						t.Errorf("scan: key %d carries rid %d", i, r)
						return false
					}
					prev = append(prev[:0], k...)
					return true
				})
				if err != nil {
					t.Errorf("scan: %v", err)
					return
				}
			}
		}()
	}

	// Wait for writers, then stop the background readers/scanners.
	writerWG.Wait()
	close(stop)
	bgWG.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Verify the exact surviving set.
	want := 0
	for w := 0; w < writers; w++ {
		for i := w * keysPerOwner; i < (w+1)*keysPerOwner; i++ {
			k := stressKey(i)
			got, found, err := tr.Search(k)
			if err != nil {
				t.Fatal(err)
			}
			if deleted[w][i] {
				if found {
					t.Fatalf("key %d deleted but still present", i)
				}
				continue
			}
			want++
			if !found {
				t.Fatalf("key %d lost", i)
			}
			if got != rid.RID(i+1) {
				t.Fatalf("key %d: rid %d, want %d", i, got, i+1)
			}
		}
	}
	n, err := tr.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("Count = %d, want %d", n, want)
	}
	if pool.Stats().Evictions.Load() == 0 {
		t.Fatalf("stress pool never evicted — pool too large to exercise fetch-under-latch")
	}
}

// TestStressScanDuringSplitStorm aims a scanner at a key range that is
// being split as fast as possible, asserting the pre-existing keys are
// always all observed, in order.
func TestStressScanDuringSplitStorm(t *testing.T) {
	pool := stressPool(t, 4)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}

	// Preload a stable key set the scanner must always see in full.
	const stable = 500
	for i := 0; i < stable; i++ {
		if err := tr.Insert([]byte(fmt.Sprintf("stable-%06d", i)), rid.RID(i)); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Interleave churn keys between the stable ones to force splits
		// of the leaves the scanner is walking.
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := []byte(fmt.Sprintf("stable-%06d~churn%d", i%stable, i))
			if err := tr.Insert(k, rid.RID(1<<30+i)); err != nil && !errors.Is(err, ErrDuplicate) {
				t.Errorf("churn insert: %v", err)
				return
			}
			i++
		}
	}()

	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	for round := 0; round < rounds; round++ {
		seen := 0
		var prev []byte
		err := tr.ScanFrom([]byte("stable-"), func(k []byte, r rid.RID) bool {
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				t.Errorf("scan not strictly ascending: %q after %q", k, prev)
				return false
			}
			prev = append(prev[:0], k...)
			if len(k) == len("stable-000000") {
				seen++
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if t.Failed() {
			break
		}
		if seen != stable {
			t.Fatalf("round %d: scan saw %d/%d stable keys", round, seen, stable)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
}
