// Package imrs implements the In-Memory Row Store: the fragment memory
// manager (the paper's "high-performance fragment-memory manager ...
// optimized for best-fit low-latency memory allocation and reclamation on
// multiple cores", Section II), row entries with in-memory version
// chains used for timestamp-based snapshot isolation, and per-partition
// footprint accounting consumed by the ILM indexes.
package imrs

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/metrics"
)

// ErrCacheFull reports that an allocation would exceed the configured
// IMRS cache size. The engine reacts by storing the row in the page
// store instead (the paper's reject-new-rows backstop).
var ErrCacheFull = errors.New("imrs: cache full")

// allocShards spreads free lists and slabs across locks.
const allocShards = 16

// slabSize is the unit in which the allocator grabs backing memory.
const slabSize = 1 << 20

// maxFragment is the largest allocatable fragment.
const maxFragment = 64 << 10

// sizeClasses lists fragment classes: 32-byte steps to 1 KB, then ~25%
// geometric growth. Rounding a request up to its class is what turns
// segregated first-fit into best-fit.
var sizeClasses = buildSizeClasses()

func buildSizeClasses() []int {
	var cls []int
	for s := 32; s <= 1024; s += 32 {
		cls = append(cls, s)
	}
	s := 1280
	for s < maxFragment {
		cls = append(cls, s)
		s = s * 5 / 4
		s = (s + 31) &^ 31
	}
	cls = append(cls, maxFragment)
	return cls
}

func classFor(n int) (idx, size int, err error) {
	if n > maxFragment {
		return 0, 0, fmt.Errorf("imrs: fragment of %d bytes exceeds max %d", n, maxFragment)
	}
	// Binary search the first class >= n.
	lo, hi := 0, len(sizeClasses)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if sizeClasses[mid] < n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, sizeClasses[lo], nil
}

// Fragment is a chunk of IMRS memory holding one row version image.
type Fragment struct {
	buf   []byte // full class-sized backing
	used  int    // payload length
	class int16
	shard int16
}

// Bytes returns the payload stored in the fragment.
func (f *Fragment) Bytes() []byte { return f.buf[:f.used] }

// Size returns the accounted (class) size of the fragment.
func (f *Fragment) Size() int { return len(f.buf) }

type allocShard struct {
	mu sync.Mutex
	// nonEmpty has bit c set while free[c] holds a fragment (there are
	// fewer than 64 classes). It is written under mu and sits beside
	// it; another shard's steal reads it without the lock, so a steal
	// reads one word per shard and locks only a shard with a fragment.
	nonEmpty atomic.Uint64
	free     [][]*Fragment // per class free lists
	slab     []byte
	slabP    int
}

// pop takes a free fragment of class idx, or returns nil. s.mu is held.
func (s *allocShard) pop(idx int) *Fragment {
	n := len(s.free[idx])
	if n == 0 {
		return nil
	}
	f := s.free[idx][n-1]
	s.free[idx] = s.free[idx][:n-1]
	if n == 1 {
		s.nonEmpty.Store(s.nonEmpty.Load() &^ (1 << idx))
	}
	return f
}

// Allocator is the fragment memory manager. It accounts used bytes
// exactly (by class size) against a fixed capacity, which is the IMRS
// "cache utilization" every ILM heuristic is defined against.
type Allocator struct {
	capacity int64
	used     metrics.Gauge
	shards   [allocShards]allocShard

	// Stats
	Allocs    metrics.Counter
	Frees     metrics.Counter
	SlabGrabs metrics.Counter
}

// NewAllocator returns an allocator with the given capacity in bytes.
func NewAllocator(capacity int64) *Allocator {
	a := &Allocator{capacity: capacity}
	for i := range a.shards {
		a.shards[i].free = make([][]*Fragment, len(sizeClasses))
	}
	return a
}

// Capacity returns the configured IMRS cache size in bytes.
func (a *Allocator) Capacity() int64 { return a.capacity }

// Used returns the currently allocated bytes (sum of class sizes).
func (a *Allocator) Used() int64 { return a.used.Load() }

// Utilization returns used/capacity in [0,1].
func (a *Allocator) Utilization() float64 {
	return float64(a.Used()) / float64(a.capacity)
}

func shardHint() int {
	var b byte
	p := uintptr(unsafe.Pointer(noescape(&b)))
	h := uint64(p)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % allocShards)
}

//go:noinline
func noescape(b *byte) *byte { return b }

// grab reserves size bytes of capacity and returns a fragment of class
// idx for a caller on shard si: a free one of si, else one carved from
// si's slab, else, before it takes a new slab, a free one another shard
// holds. Fragments are freed to the shard that carved them, not to the
// one that allocates next; taking them before a new slab keeps the
// slabs near the capacity. Callers fill f.buf and set f.used.
func (a *Allocator) grab(si, idx, size int) (*Fragment, error) {
	// Reserve capacity first; roll back on failure.
	if a.used.Load()+int64(size) > a.capacity {
		return nil, ErrCacheFull
	}
	a.used.Add(int64(size))
	if a.used.Load() > a.capacity {
		a.used.Add(-int64(size))
		return nil, ErrCacheFull
	}

	s := &a.shards[si]
	s.mu.Lock()
	f := s.pop(idx)
	if f == nil && len(s.slab)-s.slabP < size {
		if f = a.steal(si, idx); f == nil {
			s.slab = make([]byte, slabSize)
			s.slabP = 0
			a.SlabGrabs.Inc()
		}
	}
	if f == nil {
		f = &Fragment{buf: s.slab[s.slabP : s.slabP+size : s.slabP+size], class: int16(idx), shard: int16(si)}
		s.slabP += size
	}
	s.mu.Unlock()
	a.Allocs.Inc()
	return f, nil
}

// steal moves a free fragment of class idx from another shard to shard
// si, or returns nil. It reads the other shards' nonEmpty without their
// locks and only tries the lock of one that has such a fragment, so a
// miss everywhere (the recovery replay only allocates) takes no lock.
// TryLock never waits, so holding si's lock meanwhile cannot deadlock.
func (a *Allocator) steal(si, idx int) *Fragment {
	for k := 1; k < allocShards; k++ {
		o := &a.shards[(si+k)%allocShards]
		if o.nonEmpty.Load()&(1<<idx) == 0 || !o.mu.TryLock() {
			continue
		}
		f := o.pop(idx)
		o.mu.Unlock()
		if f != nil {
			f.shard = int16(si)
			return f
		}
	}
	return nil
}

// Alloc returns a fragment holding a copy of data, or ErrCacheFull.
func (a *Allocator) Alloc(data []byte) (*Fragment, error) {
	idx, size, err := classFor(len(data))
	if err != nil {
		return nil, err
	}
	f, err := a.grab(shardHint(), idx, size)
	if err != nil {
		return nil, err
	}
	f.used = copy(f.buf, data)
	return f, nil
}

// AllocFunc returns a fragment of exactly n payload bytes filled in
// place by fill, saving the encode-into-scratch-then-copy of Alloc on
// the DML hot path. fill receives the fragment's zero-length payload
// slice (capacity n) and must return the appended result; if it grew
// past n (caller's size estimate was wrong) the payload is copied back
// defensively and the fragment is reclassed on the next free/alloc
// cycle, so correctness never depends on the estimate.
func (a *Allocator) AllocFunc(n int, fill func(dst []byte) []byte) (*Fragment, error) {
	idx, size, err := classFor(n)
	if err != nil {
		return nil, err
	}
	f, err := a.grab(shardHint(), idx, size)
	if err != nil {
		return nil, err
	}
	out := fill(f.buf[:0:n])
	if len(out) == 0 {
		f.used = 0
		return f, nil
	}
	if len(out) <= n && &out[0] == &f.buf[0] {
		f.used = len(out)
		return f, nil
	}
	// fill outgrew the fragment: fall back to a correctly sized copy.
	a.Free(f)
	return a.Alloc(out)
}

// Free returns a fragment to its shard's free list.
func (a *Allocator) Free(f *Fragment) {
	if f == nil {
		return
	}
	s := &a.shards[f.shard]
	s.mu.Lock()
	if len(s.free[f.class]) == 0 {
		s.nonEmpty.Store(s.nonEmpty.Load() | 1<<f.class)
	}
	s.free[f.class] = append(s.free[f.class], f)
	s.mu.Unlock()
	a.used.Add(-int64(len(f.buf)))
	a.Frees.Inc()
}
