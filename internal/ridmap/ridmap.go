// Package ridmap implements the RID-Map table of the BTrim architecture
// (paper Section II, Figure 1): the in-memory lookup table through which
// index access locates a row either in the IMRS or in the buffer cache.
// A hit returns the IMRS entry; a miss means the row lives only in the
// page store at its RID location.
package ridmap

import (
	"sync"

	"repro/internal/imrs"
	"repro/internal/rid"
)

const shards = 64

type shard struct {
	mu sync.RWMutex
	m  map[rid.RID]*imrs.Entry
}

// Map is a sharded RID → IMRS-entry table, safe for concurrent use.
type Map struct {
	shards [shards]shard
}

// New returns an empty map.
func New() *Map {
	m := &Map{}
	for i := range m.shards {
		m.shards[i].m = make(map[rid.RID]*imrs.Entry)
	}
	return m
}

func (m *Map) shard(r rid.RID) *shard {
	h := uint64(r)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return &m.shards[h%shards]
}

// Reserve sizes the map to hold n entries without growing: recovery
// calls it, while the map is still empty, before its lanes fill it.
// Shards that already hold entries keep them.
func (m *Map) Reserve(n int) {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		if len(s.m) == 0 {
			s.m = make(map[rid.RID]*imrs.Entry, n/shards+1)
		}
		s.mu.Unlock()
	}
}

// Get returns the IMRS entry for r, or nil when the row is not
// IMRS-resident.
func (m *Map) Get(r rid.RID) *imrs.Entry {
	s := m.shard(r)
	s.mu.RLock()
	e := s.m[r]
	s.mu.RUnlock()
	if e != nil && e.Packed() {
		return nil
	}
	return e
}

// Put publishes e under r. It reports false (and does not overwrite) if
// another live entry is already published — the caller lost a race to
// migrate/cache the same row.
func (m *Map) Put(r rid.RID, e *imrs.Entry) bool {
	s := m.shard(r)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.m[r]; ok && !old.Packed() {
		return false
	}
	s.m[r] = e
	return true
}

// Delete unpublishes r if it currently maps to e.
func (m *Map) Delete(r rid.RID, e *imrs.Entry) {
	s := m.shard(r)
	s.mu.Lock()
	if s.m[r] == e {
		delete(s.m, r)
	}
	s.mu.Unlock()
}

// Len returns the number of live entries — the same set Get and Range
// expose, excluding packed entries awaiting the GC sweep. O(n): it
// walks every shard. For tests and stats.
func (m *Map) Len() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		for _, e := range s.m {
			if !e.Packed() {
				n++
			}
		}
		s.mu.RUnlock()
	}
	return n
}

// LenRaw returns the number of published entries including packed ones
// not yet swept — the map's physical size, which is what sizes memory,
// as opposed to Len's logical (visible) count.
func (m *Map) LenRaw() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Range calls fn for every live entry until fn returns false.
func (m *Map) Range(fn func(rid.RID, *imrs.Entry) bool) {
	for i := 0; i < Chunks; i++ {
		if !m.RangeChunk(i, fn) {
			return
		}
	}
}

// Chunks is the number of disjoint chunks RangeChunk splits the map into.
const Chunks = shards

// RangeChunk calls fn for every live entry of chunk i (0 ≤ i < Chunks)
// until fn returns false, and reports whether it ran to the end. The
// chunks partition the map, so workers may range different chunks at
// once; fn runs with no lock held.
func (m *Map) RangeChunk(i int, fn func(rid.RID, *imrs.Entry) bool) bool {
	s := &m.shards[i]
	s.mu.RLock()
	type kv struct {
		r rid.RID
		e *imrs.Entry
	}
	items := make([]kv, 0, len(s.m))
	for r, e := range s.m {
		if !e.Packed() {
			items = append(items, kv{r, e})
		}
	}
	s.mu.RUnlock()
	for _, it := range items {
		if !fn(it.r, it.e) {
			return false
		}
	}
	return true
}
