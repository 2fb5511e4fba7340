package txn

import (
	"math"
	"sync"
	"sync/atomic"
)

// snapShards stripes the registry; registrations are spread round-robin
// so concurrent Begin/finish pairs rarely contend on the same mutex.
// Must be a power of two.
const snapShards = 16

// snapShard is one stripe. The padding keeps adjacent shards' mutexes
// off the same cache line.
type snapShard struct {
	mu     sync.Mutex
	active map[uint64]int // snapshot ts -> refcount
	_      [104]byte
}

// SnapshotRegistry tracks the IMRS-GC reader epochs of active
// statements and transactions. IMRS-GC frees a retired row version or
// entry only once every reader registered before the retire has
// unregistered; the paper calls the equivalent shield for lock-free
// scanners "statement registration" (Section VII-B). Every transaction
// registers at Begin, before it reads its snapshot, and unregisters at
// finish, so the registry is striped: Register/Unregister touch a
// single shard, while the rare MinActive (GC passes) locks all shards
// for a consistent view.
type SnapshotRegistry struct {
	shards [snapShards]snapShard
	next   atomic.Uint32 // round-robin shard cursor
}

// SnapshotRef identifies one registration; pass it back to Unregister.
type SnapshotRef struct {
	ts    uint64
	shard uint32
}

// TS returns the registered value.
func (r SnapshotRef) TS() uint64 { return r.ts }

// NewSnapshotRegistry returns an empty registry.
func NewSnapshotRegistry() *SnapshotRegistry {
	s := &SnapshotRegistry{}
	for i := range s.shards {
		s.shards[i].active = make(map[uint64]int)
	}
	return s
}

// Register records an active reader at ts (IMRS-GC registers epochs).
// The caller must Unregister the returned ref exactly once.
func (s *SnapshotRegistry) Register(ts uint64) SnapshotRef {
	i := s.next.Add(1) & (snapShards - 1)
	sh := &s.shards[i]
	sh.mu.Lock()
	sh.active[ts]++
	sh.mu.Unlock()
	return SnapshotRef{ts: ts, shard: i}
}

// Unregister drops one registration.
func (s *SnapshotRegistry) Unregister(ref SnapshotRef) {
	sh := &s.shards[ref.shard&(snapShards-1)]
	sh.mu.Lock()
	if n := sh.active[ref.ts]; n <= 1 {
		delete(sh.active, ref.ts)
	} else {
		sh.active[ref.ts] = n - 1
	}
	sh.mu.Unlock()
}

// MinActive returns the smallest registered value, or math.MaxUint64
// when no reader is active (everything retired so far is reclaimable).
// All shards are locked together so the view is consistent.
func (s *SnapshotRegistry) MinActive() uint64 {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	min := uint64(math.MaxUint64)
	for i := range s.shards {
		for ts := range s.shards[i].active {
			if ts < min {
				min = ts
			}
		}
	}
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
	return min
}

// ActiveCount returns the number of distinct registered values
// (tests).
func (s *SnapshotRegistry) ActiveCount() int {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	distinct := make(map[uint64]struct{})
	for i := range s.shards {
		for ts := range s.shards[i].active {
			distinct[ts] = struct{}{}
		}
	}
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
	return len(distinct)
}
