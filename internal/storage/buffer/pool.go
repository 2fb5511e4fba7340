// Package buffer implements the read/write buffer cache of the paper's
// Figure 1: a fixed pool of page frames over a disk device with pin
// counts, per-page latches, clock eviction, and dirty-page write-back.
//
// The pool also measures what the paper's ILM heuristics consume: latch
// contention. Frame latch acquisitions that could not be granted
// immediately are counted, and the heap layer attributes them to
// partitions so that the ILM tuner can re-enable IMRS use for contended
// partitions (paper Section V-D).
package buffer

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/storage/disk"
	"repro/internal/storage/page"
)

// Frame is a buffer slot holding one page.
type Frame struct {
	mu    sync.RWMutex // the page latch
	id    uint32       // page id; only valid while mapped
	pg    page.Page    // wraps the frame's buffer for its whole life
	pins  atomic.Int32
	dirty atomic.Bool
	ref   atomic.Bool // clock reference bit

	pool *Pool
}

// ID returns the page id held by this frame.
func (f *Frame) ID() uint32 { return f.id }

// Page returns the frame's buffer as a slotted page. Callers must hold
// the latch.
func (f *Frame) Page() *page.Page { return &f.pg }

// Latch acquires the frame latch (exclusive when excl). It reports
// whether the caller had to wait — the latch-contention signal.
func (f *Frame) Latch(excl bool) (waited bool) {
	if excl {
		if f.mu.TryLock() {
			return false
		}
		f.pool.stats.LatchWaits.Add(1)
		f.mu.Lock()
		return true
	}
	if f.mu.TryRLock() {
		return false
	}
	f.pool.stats.LatchWaits.Add(1)
	f.mu.RLock()
	return true
}

// TryLatch attempts to acquire the frame latch without blocking and
// reports whether it succeeded. Latch-coupled traversals use it to
// detect contention before committing to a blocking acquire.
func (f *Frame) TryLatch(excl bool) bool {
	if excl {
		return f.mu.TryLock()
	}
	return f.mu.TryRLock()
}

// Upgrade trades a shared latch for an exclusive one. It is NOT atomic:
// the shared latch is dropped before the exclusive latch is taken, so
// other latchers may run in the gap and callers must revalidate whatever
// they read under the shared latch. It reports whether the exclusive
// acquire had to wait.
func (f *Frame) Upgrade() (waited bool) {
	f.mu.RUnlock()
	if f.mu.TryLock() {
		return false
	}
	f.pool.stats.LatchWaits.Add(1)
	f.mu.Lock()
	return true
}

// Unlatch releases the latch acquired with the matching excl flag.
func (f *Frame) Unlatch(excl bool) {
	if excl {
		f.mu.Unlock()
	} else {
		f.mu.RUnlock()
	}
}

// MarkDirty flags the page as needing write-back. Callers must hold the
// exclusive latch while mutating the page.
func (f *Frame) MarkDirty() { f.dirty.Store(true) }

// IndexLatchLevels is how many B+tree levels get their own latch-wait
// bucket in Stats. Level 0 is the root; waits at deeper levels are
// clamped into the last bucket. Six levels cover any realistic tree
// over 8 KiB pages.
const IndexLatchLevels = 6

// Stats aggregates pool-wide counters.
type Stats struct {
	Hits       atomic.Int64
	Misses     atomic.Int64
	Evictions  atomic.Int64
	WriteBacks atomic.Int64
	LatchWaits atomic.Int64
	Overflows  atomic.Int64 // frames allocated beyond capacity (nothing evictable)

	// IndexLevelWaits attributes contested index-frame latches to the
	// tree level they occurred at (0 = root). Latch-coupled traversals
	// report into it via NoteIndexWait; the split tells hot-root
	// contention apart from leaf contention.
	IndexLevelWaits [IndexLatchLevels]atomic.Int64
}

// NoteIndexWait records a contested latch acquisition at the given tree
// level (0 = root). Levels past the bucket range fold into the last
// bucket.
func (s *Stats) NoteIndexWait(level int) {
	if level < 0 {
		level = 0
	}
	if level >= IndexLatchLevels {
		level = IndexLatchLevels - 1
	}
	s.IndexLevelWaits[level].Add(1)
}

// IndexWaitsByLevel copies the per-level index latch-wait counters.
func (s *Stats) IndexWaitsByLevel() []int64 {
	out := make([]int64, IndexLatchLevels)
	for i := range out {
		out[i] = s.IndexLevelWaits[i].Load()
	}
	return out
}

// FlushGate is called with a page's LSN before the pool writes the page
// back, so the WAL can be forced first (write-ahead rule).
type FlushGate func(pageLSN uint64) error

// Pool is a buffer cache over a device.
type Pool struct {
	dev      disk.Device
	capacity int
	gate     FlushGate

	mu      sync.Mutex
	table   map[uint32]*Frame
	frames  []*Frame
	hand    int
	noSteal bool

	stats Stats
}

// NewPool creates a pool of capacity frames over dev. gate may be nil.
func NewPool(dev disk.Device, capacity int, gate FlushGate) (*Pool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("buffer: capacity %d < 1", capacity)
	}
	p := &Pool{
		dev:      dev,
		capacity: capacity,
		gate:     gate,
		table:    make(map[uint32]*Frame, capacity),
	}
	return p, nil
}

// Stats exposes the pool counters.
func (p *Pool) Stats() *Stats { return &p.stats }

// SetNoSteal selects the no-steal buffer policy: dirty pages are never
// written back by eviction, only by FlushAll (checkpoint). When every
// frame is dirty or pinned, the pool grows past its nominal capacity and
// counts the overflow. No-steal plus quiesced checkpoints means on-disk
// pages never contain uncommitted data, so recovery needs no undo pass —
// the simplification DESIGN.md records for the page store.
func (p *Pool) SetNoSteal(v bool) {
	p.mu.Lock()
	p.noSteal = v
	p.mu.Unlock()
}

// Capacity returns the frame count limit.
func (p *Pool) Capacity() int { return p.capacity }

// Fetch pins the frame for page id, reading it from the device on a miss.
// The caller must Unpin it and must latch it before touching the page.
func (p *Pool) Fetch(id uint32) (*Frame, error) {
	p.mu.Lock()
	if f, ok := p.table[id]; ok {
		f.pins.Add(1)
		f.ref.Store(true)
		p.mu.Unlock()
		p.stats.Hits.Add(1)
		return f, nil
	}
	f, err := p.victimLocked()
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	// Reserve the mapping before dropping the pool lock so concurrent
	// fetches of the same page wait on the frame latch rather than double
	// reading. Pin it so no one evicts it while we fill it.
	f.id = id
	f.pins.Store(1)
	f.ref.Store(true)
	p.table[id] = f
	f.mu.Lock() // block readers until the fill completes
	p.mu.Unlock()

	err = p.dev.ReadPage(id, f.pg.Bytes())
	f.mu.Unlock()
	if err != nil {
		p.mu.Lock()
		delete(p.table, id)
		f.pins.Store(0)
		p.mu.Unlock()
		return nil, err
	}
	p.stats.Misses.Add(1)
	return f, nil
}

// NewPage allocates a fresh page on the device, pins it, formats it as t,
// and returns its id and frame. The frame is returned latched
// exclusively; the caller must Unlatch(true) and Unpin it.
func (p *Pool) NewPage(t page.Type) (uint32, *Frame, error) {
	id, err := p.dev.AllocatePage()
	if err != nil {
		return 0, nil, err
	}
	p.mu.Lock()
	f, err := p.victimLocked()
	if err != nil {
		p.mu.Unlock()
		return 0, nil, err
	}
	f.id = id
	f.pins.Store(1)
	f.ref.Store(true)
	p.table[id] = f
	f.mu.Lock()
	p.mu.Unlock()

	f.Page().Init(t)
	f.dirty.Store(true)
	return id, f, nil
}

// Unpin releases one pin. If dirty, the page is flagged for write-back.
func (p *Pool) Unpin(f *Frame, dirty bool) {
	if dirty {
		f.dirty.Store(true)
	}
	if n := f.pins.Add(-1); n < 0 {
		panic("buffer: unpin below zero")
	}
}

// victimLocked returns a free or evictable frame. Pool mutex held.
func (p *Pool) victimLocked() (*Frame, error) {
	if len(p.frames) < p.capacity {
		f := p.newFrame()
		p.frames = append(p.frames, f)
		return f, nil
	}
	// Clock sweep: two full passes give every ref bit a chance to clear.
	for i := 0; i < 2*len(p.frames); i++ {
		f := p.frames[p.hand]
		p.hand = (p.hand + 1) % len(p.frames)
		if f.pins.Load() != 0 {
			continue
		}
		if p.noSteal && f.dirty.Load() {
			continue
		}
		if f.ref.Swap(false) {
			continue
		}
		// Evict f. Write back while holding the pool lock: eviction is off
		// the hot path and this keeps the mapping consistent.
		if f.dirty.Load() {
			if err := p.flushFrameLocked(f); err != nil {
				return nil, err
			}
		}
		delete(p.table, f.id)
		p.stats.Evictions.Add(1)
		return f, nil
	}
	// Every frame is pinned (or, under no-steal, dirty): grow past
	// capacity rather than fail the fetch or violate no-steal. The
	// overflow is bounded by the number of concurrently pinned frames.
	f := p.newFrame()
	p.frames = append(p.frames, f)
	p.stats.Overflows.Add(1)
	return f, nil
}

// newFrame returns an unmapped frame over a fresh page buffer.
func (p *Pool) newFrame() *Frame {
	return &Frame{pg: *page.Wrap(make([]byte, disk.PageSize)), pool: p}
}

// flushFrameLocked writes back a dirty frame. The caller must hold
// either the pool mutex with f unpinned (eviction) or f's shared latch
// with f pinned (FlushAll); both exclude mutators and remapping.
func (p *Pool) flushFrameLocked(f *Frame) error {
	if p.gate != nil {
		if err := p.gate(f.pg.LSN()); err != nil {
			return err
		}
	}
	if err := p.dev.WritePage(f.id, f.pg.Bytes()); err != nil {
		return err
	}
	f.dirty.Store(false)
	p.stats.WriteBacks.Add(1)
	return nil
}

// FlushAll writes back every dirty frame (checkpoint helper).
//
// Frames are latched OUTSIDE the pool mutex: latch-coupled index
// traversals hold a frame latch while fetching the next page (frame
// latch → pool mutex), so blocking on a latch while holding the pool
// mutex would deadlock against them. The snapshot is pinned so no frame
// can be evicted and remapped to a different page mid-flush.
func (p *Pool) FlushAll() error {
	p.mu.Lock()
	frames := make([]*Frame, 0, len(p.table))
	for _, f := range p.frames {
		if mapped, ok := p.table[f.id]; ok && mapped == f {
			f.pins.Add(1)
			frames = append(frames, f)
		}
	}
	p.mu.Unlock()

	var firstErr error
	for _, f := range frames {
		if f.dirty.Load() && firstErr == nil {
			f.mu.RLock()
			firstErr = p.flushFrameLocked(f)
			f.mu.RUnlock()
		}
		p.Unpin(f, false)
	}
	if firstErr != nil {
		return firstErr
	}
	return p.dev.Sync()
}

// CachedPages returns the number of mapped pages (for tests).
func (p *Pool) CachedPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.table)
}
