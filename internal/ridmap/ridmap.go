// Package ridmap implements the RID-Map table of the BTrim architecture
// (paper Section II, Figure 1): the in-memory lookup table through which
// index access locates a row either in the IMRS or in the buffer cache.
// A hit returns the IMRS entry; a miss means the row lives only in the
// page store at its RID location.
//
// The map is addressed by the RID's own bits, not hashed: a root indexed
// by partition and virtual bit leads to a directory of fixed-size leaves
// of entry pointers. Get takes no lock; see DESIGN.md §16.
package ridmap

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/imrs"
	"repro/internal/rid"
	"repro/internal/storage/page"
)

const (
	leafBits  = 7
	leafWidth = 1 << leafBits
	leafMask  = leafWidth - 1
	slotBits  = 11 // a physical RID's index is page<<slotBits | slot
	minDir    = 8  // the fewest leaves a directory is made for

	dead = math.MinInt32 / 2 // a freed leaf's live count: failed pins never lift it to 0
)

// Every slot of a page fits in slotBits (the constant would overflow).
const _ = uint(1<<slotBits - page.MaxSlots)

// leaf holds the entries of leafWidth consecutive indexes.
type leaf struct {
	// live counts the published entries plus the Puts in flight on the
	// leaf. The leaf is freed when it falls to zero, and is dead after.
	live  atomic.Int32
	slots [leafWidth]atomic.Pointer[imrs.Entry]
}

// dir is a table's directory: leaves[j] holds leaf number base+j. Only
// its leaf pointers change; a larger directory replaces it.
type dir struct {
	base   uint64
	leaves []atomic.Pointer[leaf]
}

// leaf returns leaf number n, or nil when there is none.
func (d *dir) leaf(n uint64) *leaf {
	if j := n - d.base; j < uint64(len(d.leaves)) {
		return d.leaves[j].Load()
	}
	return nil
}

// table maps the RIDs of one kind in one partition.
type table struct {
	dir atomic.Pointer[dir]
	mu  sync.Mutex // allocates and frees leaves, replaces dir
}

// Map is a RID → IMRS-entry table, safe for concurrent use.
type Map struct {
	root   atomic.Pointer[[]*table] // by key
	mu     sync.Mutex               // replaces root
	leaves atomic.Int64             // leaves allocated and not yet freed
}

// New returns an empty map.
func New() *Map {
	m := &Map{}
	m.root.Store(new([]*table))
	return m
}

// key returns the root index of r's table: its partition and virtual bit.
func key(r rid.RID) uint64 {
	return uint64(r.Partition())<<1 | uint64(r)>>63
}

// index returns r's index within its table: a virtual RID's sequence
// number, or a physical RID's page and slot, with false for a slot no
// page has.
func index(r rid.RID) (uint64, bool) {
	if r.IsVirtual() {
		return r.Seq(), true
	}
	return uint64(r.Page())<<slotBits | uint64(r.Slot()), r.Slot() < 1<<slotBits
}

// locate returns r's table, nil when it has none, and r's index in it.
func (m *Map) locate(r rid.RID) (*table, uint64) {
	k, tabs := key(r), *m.root.Load()
	if i, ok := index(r); ok && k < uint64(len(tabs)) {
		return tabs[k], i
	}
	return nil, 0
}

// Get returns the IMRS entry for r, or nil when the row is not
// IMRS-resident.
func (m *Map) Get(r rid.RID) *imrs.Entry {
	t, i := m.locate(r)
	if t == nil {
		return nil
	}
	if l := t.dir.Load().leaf(i >> leafBits); l != nil {
		if e := l.slots[i&leafMask].Load(); e != nil && !e.Packed() {
			return e
		}
	}
	return nil
}

// Put publishes e under r. It reports false (and does not overwrite) if
// another live entry is already published — the caller lost a race to
// migrate/cache the same row — or if r's slot is one no page has.
func (m *Map) Put(r rid.RID, e *imrs.Entry) bool {
	i, ok := index(r)
	if !ok {
		return false
	}
	t, n := m.tableFor(r), i>>leafBits
	l := t.dir.Load().leaf(n)
	for l == nil || l.live.Add(1) <= 0 {
		l = m.newLeaf(t, n) // none yet, or freed since
	}
	s := &l.slots[i&leafMask]
	for {
		old := s.Load()
		if old != nil && !old.Packed() {
			m.unpin(t, n, l)
			return false
		}
		if s.CompareAndSwap(old, e) {
			if old != nil {
				l.live.Add(-1) // replaced a packed entry: still one entry
			}
			return true
		}
	}
}

// Delete unpublishes r if it currently maps to e.
func (m *Map) Delete(r rid.RID, e *imrs.Entry) {
	if t, i := m.locate(r); t != nil && e != nil {
		n := i >> leafBits
		if l := t.dir.Load().leaf(n); l != nil && l.slots[i&leafMask].CompareAndSwap(e, nil) {
			m.unpin(t, n, l)
		}
	}
}

// unpin takes one from l's live count and frees l, leaf number n of t,
// when that was the last.
func (m *Map) unpin(t *table, n uint64, l *leaf) {
	if l.live.Add(-1) != 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// A Put that pinned l since keeps it; one that pins it after this
	// finds it dead and allocates anew under t.mu.
	if l.live.CompareAndSwap(0, dead) {
		d := t.dir.Load()
		d.leaves[n-d.base].Store(nil)
		m.leaves.Add(-1)
	}
}

// tableFor returns r's table, growing the root to it if it has none.
// The root holds a table for every key below its length.
func (m *Map) tableFor(r rid.RID) *table {
	if t, _ := m.locate(r); t != nil {
		return t
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	k, tabs := key(r), *m.root.Load()
	for uint64(len(tabs)) <= k {
		t := &table{}
		t.dir.Store(&dir{})
		tabs = append(tabs[:len(tabs):len(tabs)], t) // readers keep the old array
	}
	m.root.Store(&tabs)
	return tabs[k]
}

// newLeaf returns t's leaf number n, allocating it if it has none. A
// freed leaf is never returned: its free clears it under t.mu.
func (m *Map) newLeaf(t *table, n uint64) *leaf {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.dir.Load()
	if l := d.leaf(n); l != nil {
		return l
	}
	if n-d.base >= uint64(len(d.leaves)) {
		d = grow(d, n)
		t.dir.Store(d)
	}
	l := new(leaf)
	d.leaves[n-d.base].Store(l)
	m.leaves.Add(1)
	return l
}

// grow returns a directory twice the span from d's first leaf to its
// last, n included, with the leaves copied and the spare room on n's
// side. Empty room before the first leaf is dropped, so a directory
// follows a window of RIDs that slides up instead of growing with it.
func grow(d *dir, n uint64) *dir {
	lo, hi := n, n+1
	for j := range d.leaves {
		if d.leaves[j].Load() != nil {
			lo, hi = min(lo, d.base+uint64(j)), max(hi, d.base+uint64(j)+1)
		}
	}
	size := max(2*(hi-lo), minDir)
	base := lo
	if n == lo && hi > n+1 {
		base = hi - min(hi, size) // growing down
	}
	nd := &dir{base: base, leaves: make([]atomic.Pointer[leaf], size)}
	for j := range d.leaves {
		if l := d.leaves[j].Load(); l != nil {
			nd.leaves[d.base+uint64(j)-base].Store(l)
		}
	}
	return nd
}

// Len returns the number of live entries — the same set Get and Range
// expose, excluding packed entries awaiting the GC sweep. O(n): it
// walks every leaf. For tests and stats.
func (m *Map) Len() (n int) {
	m.Range(func(rid.RID, *imrs.Entry) bool { n++; return true })
	return n
}

// LenRaw returns the number of published entries including packed ones
// not yet swept — the map's physical size, which is what sizes memory,
// as opposed to Len's logical (visible) count.
func (m *Map) LenRaw() (n int) {
	m.walk(-1, func(rid.RID, *imrs.Entry) bool { n++; return true })
	return n
}

// Range calls fn for every live entry, in RID order, until fn returns
// false.
func (m *Map) Range(fn func(rid.RID, *imrs.Entry) bool) {
	m.RangeChunk(-1, fn)
}

// Chunks is the number of disjoint chunks RangeChunk splits the map into.
const Chunks = 64

// RangeChunk calls fn for every live entry of chunk i (0 ≤ i < Chunks)
// until fn returns false, and reports whether it ran to the end. The
// chunks partition the map by leaf, so workers may range different
// chunks at once; each visits its entries in RID order. fn runs with
// no lock held; an entry published during the walk may or may not be
// visited.
func (m *Map) RangeChunk(i int, fn func(rid.RID, *imrs.Entry) bool) bool {
	return m.walk(i, func(r rid.RID, e *imrs.Entry) bool {
		return e.Packed() || fn(r, e)
	})
}

// walk calls fn for every published entry of chunk i, or of the whole
// map when i < 0, in RID order until fn returns false, and reports
// whether it ran to the end.
func (m *Map) walk(i int, fn func(rid.RID, *imrs.Entry) bool) bool {
	tabs := *m.root.Load()
	for virt := 0; virt < 2; virt++ {
		for k := virt; k < len(tabs); k += 2 {
			d, part := tabs[k].dir.Load(), rid.PartitionID(k>>1)
			for j := range d.leaves {
				n, l := d.base+uint64(j), d.leaves[j].Load()
				if l == nil || i >= 0 && n%Chunks != uint64(i) {
					continue
				}
				for s := range l.slots {
					e, x := l.slots[s].Load(), n<<leafBits|uint64(s)
					if e == nil {
						continue
					}
					r := rid.NewVirtual(part, x)
					if virt == 0 {
						r = rid.NewPhysical(part, rid.PageID(x>>slotBits), uint16(x&(1<<slotBits-1)))
					}
					if !fn(r, e) {
						return false
					}
				}
			}
		}
	}
	return true
}
