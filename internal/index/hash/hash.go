// Package hash implements the table-specific, non-logged, in-memory hash
// indexes of the BTrim architecture: hash tables with lock-free reads
// that span only IMRS-resident rows and act as a fast-path performance
// accelerator under unique B-tree indexes (paper Section II). A miss
// here is not "absent" — it merely means the row must be located
// through the B-tree.
package hash

import (
	"sync"
	"sync/atomic"

	"repro/internal/imrs"
)

// node is immutable once a bucket head or a table that reaches it has
// been published: writers replace chains copy-on-write, never in place.
type node struct {
	hash  uint64
	key   string
	entry *imrs.Entry
	next  *node
}

type table struct {
	buckets []atomic.Pointer[node] // power-of-two length
}

func (t *table) bucket(h uint64) *atomic.Pointer[node] {
	return &t.buckets[h&uint64(len(t.buckets)-1)]
}

// segments is the number of independently growing stripes. A key's
// stripe comes from the top segmentBits of its hash, its bucket from the
// low bits, so the two choices are independent.
const (
	segmentBits = 6
	segments    = 1 << segmentBits
)

// segment is one stripe: writers serialise on mu, readers only load
// table.
type segment struct {
	mu    sync.Mutex
	table atomic.Pointer[table]
	count atomic.Int64 // written under mu
}

// Index is a hash table from key bytes to IMRS entries that grows with
// its contents: a segment doubles its bucket array whenever its entries
// exceed its buckets, and never shrinks, so LoadFactor stays ≤ 1 at any
// size. Get takes no lock: it loads the segment's current bucket array
// and walks an immutable chain. Put and Delete hold the segment's mutex
// and publish a new chain head, or a doubled array built from fresh
// nodes, with one store — a reader still on the old array sees a
// consistent, at worst stale, chain.
type Index struct {
	segs [segments]segment

	// Hits/Misses instrument the fast path for the ablation bench.
	Hits   atomic.Int64
	Misses atomic.Int64
}

// New creates an index that starts with at least minBuckets buckets
// (rounded up to a power of two, minimum 256). The size is only a
// starting point: the table grows on its own.
func New(minBuckets int) *Index {
	n := 256
	for n < minBuckets {
		n <<= 1
	}
	ix := &Index{}
	for i := range ix.segs {
		ix.segs[i].table.Store(&table{buckets: make([]atomic.Pointer[node], n/segments)})
	}
	return ix
}

func hashKey(key []byte) uint64 {
	// FNV-1a, then a finalizer mix.
	h := uint64(1469598103934665603)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func (ix *Index) segment(h uint64) *segment { return &ix.segs[h>>(64-segmentBits)] }

// Get returns the live IMRS entry for key, or nil. Packed entries read
// as absent (the row left the IMRS).
func (ix *Index) Get(key []byte) *imrs.Entry {
	h := hashKey(key)
	for n := ix.segment(h).table.Load().bucket(h).Load(); n != nil; n = n.next {
		if n.hash == h && n.key == string(key) {
			if n.entry.Packed() {
				break
			}
			ix.Hits.Add(1)
			return n.entry
		}
	}
	ix.Misses.Add(1)
	return nil
}

// Put publishes key → e. An existing mapping for key is replaced.
func (ix *Index) Put(key []byte, e *imrs.Entry) {
	h := hashKey(key)
	s := ix.segment(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.table.Load()
	b := t.bucket(h)
	tail, replaced := copyWithout(b.Load(), h, key)
	b.Store(&node{hash: h, key: string(key), entry: e, next: tail})
	if replaced {
		return
	}
	// Grow before counting the new entry, so that count ≤ buckets holds
	// at every instant an observer could sample the two.
	if s.count.Load() == int64(len(t.buckets)) {
		s.table.Store(t.resized(2 * len(t.buckets)))
	}
	s.count.Add(1)
}

// Delete removes the mapping for key if it currently points at e.
func (ix *Index) Delete(key []byte, e *imrs.Entry) {
	h := hashKey(key)
	s := ix.segment(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.table.Load().bucket(h)
	head := b.Load()
	for n := head; n != nil; n = n.next {
		if n.hash == h && n.key == string(key) {
			if n.entry == e {
				tail, _ := copyWithout(head, h, key)
				b.Store(tail)
				s.count.Add(-1)
			}
			return
		}
	}
}

// resized returns a table of size buckets holding t's mappings in fresh
// nodes, so that readers still walking t's chains are undisturbed.
// The caller holds the segment mutex.
func (t *table) resized(size int) *table {
	nt := &table{buckets: make([]atomic.Pointer[node], size)}
	for i := range t.buckets {
		for n := t.buckets[i].Load(); n != nil; n = n.next {
			b := nt.bucket(n.hash)
			b.Store(&node{hash: n.hash, key: n.key, entry: n.entry, next: b.Load()})
		}
	}
	return nt
}

// Reserve grows the index so that it can hold n mappings without
// growing again (recovery sizes it to the recovered entry count before
// it fills it). It never shrinks the index.
func (ix *Index) Reserve(n int) {
	per := 1
	for per*segments < n {
		per <<= 1
	}
	for i := range ix.segs {
		s := &ix.segs[i]
		s.mu.Lock()
		if t := s.table.Load(); len(t.buckets) < per {
			s.table.Store(t.resized(per))
		}
		s.mu.Unlock()
	}
}

// copyWithout returns a chain equal to head minus any node keyed k, and
// whether such a node existed. Untouched suffixes are shared.
func copyWithout(head *node, h uint64, k []byte) (*node, bool) {
	// Find the victim; if none, share the whole chain.
	var victim *node
	for n := head; n != nil; n = n.next {
		if n.hash == h && n.key == string(k) {
			victim = n
			break
		}
	}
	if victim == nil {
		return head, false
	}
	// Copy nodes before the victim; share the rest.
	var first, last *node
	for n := head; n != victim; n = n.next {
		cp := &node{hash: n.hash, key: n.key, entry: n.entry}
		if last == nil {
			first = cp
		} else {
			last.next = cp
		}
		last = cp
	}
	if last == nil {
		return victim.next, true
	}
	last.next = victim.next
	return first, true
}

// Len returns the number of mappings.
func (ix *Index) Len() int {
	var n int64
	for i := range ix.segs {
		n += ix.segs[i].count.Load()
	}
	return int(n)
}

// Buckets returns the current bucket count. It only ever grows.
func (ix *Index) Buckets() int {
	n := 0
	for i := range ix.segs {
		n += len(ix.segs[i].table.Load().buckets)
	}
	return n
}

// LoadFactor returns entries per bucket: the mean chain length. Growth
// keeps it ≤ 1 (each segment doubles before its own factor exceeds 1).
func (ix *Index) LoadFactor() float64 {
	return float64(ix.Len()) / float64(ix.Buckets())
}
