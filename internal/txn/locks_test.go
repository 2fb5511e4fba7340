package txn

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rid"
)

// sameShardRIDs returns n RIDs that hash to one lock shard.
func sameShardRIDs(m *LockManager, n int) []rid.RID {
	first := rid.NewPhysical(1, 1, 0)
	out := []rid.RID{first}
	for slot := uint16(1); len(out) < n; slot++ {
		if r := rid.NewPhysical(1, 1, slot); m.shard(r) == m.shard(first) {
			out = append(out, r)
		}
	}
	return out
}

// TestLockUncontendedAllocs gates the uncontended path: a Lock or
// TryLock of a free row and its Unlock allocate nothing once the shard
// has an entry to recycle, and no channel is made without a waiter.
func TestLockUncontendedAllocs(t *testing.T) {
	m := NewLockManager(time.Second)
	r := rid.NewPhysical(1, 1, 1)
	for name, lock := range map[string]func(){
		"Lock": func() {
			if err := m.Lock(7, r); err != nil {
				t.Fatal(err)
			}
		},
		"TryLock": func() {
			if !m.TryLock(7, r) {
				t.Fatal("TryLock of a free row failed")
			}
		},
	} {
		avg := testing.AllocsPerRun(1000, func() {
			lock()
			m.Unlock(7, r)
		})
		if avg != 0 {
			t.Fatalf("uncontended %s/Unlock allocates %.1f, want 0", name, avg)
		}
	}
}

// TestLockRecycledEntries runs waiters that time out and waiters that
// are granted beside lock/unlock churn, all on RIDs of one shard, so
// entries are deleted and recycled while other entries of the shard
// have waiters. A waiter is never granted a held lock, never stranded
// past a release, and the shard keeps only a bounded free list.
func TestLockRecycledEntries(t *testing.T) {
	const timeout = time.Second
	m := NewLockManager(timeout)
	rids := sameShardRIDs(m, 8)
	pinned, churn := rids[0], rids[1:]

	// pinned is held for the whole test: every waiter on it times out.
	if err := m.Lock(1, pinned); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var timeouts atomic.Int32
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := m.Lock(id, pinned); !errors.Is(err, ErrLockTimeout) {
					t.Errorf("waiter on a held lock: err %v, want ErrLockTimeout", err)
					return
				}
				timeouts.Add(1)
			}
		}(uint64(100 + w))
	}

	// Churn: workers take turns on a few RIDs with short holds, until
	// both waiters on pinned have timed out. Each release wakes waiters;
	// once a RID is free its entry is recycled. A wait that times out
	// here was stranded: every hold is brief, and the timeout is long
	// enough for any loser of the wake-up races to get its turn.
	holders := make([]atomic.Int32, len(churn))
	iters := 2000
	if testing.Short() {
		iters = 500
	}
	var churnWG sync.WaitGroup
	for w := 0; w < 6; w++ {
		churnWG.Add(1)
		go func(id uint64) {
			defer churnWG.Done()
			for i := 0; i < iters || timeouts.Load() < 2; i++ {
				k := (int(id) + i) % 3 // contend on three RIDs ...
				if i%5 == 0 {
					k = 3 + i%(len(churn)-3) // ... and visit the rest
				}
				r := churn[k]
				if err := m.Lock(id, r); err != nil {
					t.Errorf("worker %d: lock %v: %v (stranded waiter)", id, r, err)
					return
				}
				if n := holders[k].Add(1); n != 1 {
					t.Errorf("worker %d: %d holders of %v", id, n, r)
				}
				holders[k].Add(-1)
				m.Unlock(id, r)
			}
		}(uint64(10 + w))
	}
	churnWG.Wait()
	close(stop)
	wg.Wait()
	m.Unlock(1, pinned)

	s := m.shard(pinned)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) != 0 {
		t.Fatalf("%d entries left after every lock was released", len(s.entries))
	}
	if len(s.free) > lockFreeMax {
		t.Fatalf("free list holds %d entries, bound %d", len(s.free), lockFreeMax)
	}
}
