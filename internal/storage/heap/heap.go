// Package heap implements page-store heap tables: unordered collections
// of records on slotted pages, addressed by stable RIDs. Updates that no
// longer fit in place leave a forwarding stub so the RID stays valid, as
// in classic slotted-page engines. Heaps report buffer-latch contention
// per operation so the ILM layer can attribute page-store contention to
// partitions (paper Section V-D).
package heap

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/metrics"
	"repro/internal/rid"
	"repro/internal/storage/buffer"
	"repro/internal/storage/page"
)

// Record header flags (first byte of every heap record).
const (
	flagForwarded = 1 << 0 // payload is the 8-byte RID of the real record
	flagMoved     = 1 << 1 // record was placed here by a forwarding move
)

const noPage uint32 = 0xFFFFFFFF

// Heap is one partition's page-store segment.
type Heap struct {
	part rid.PartitionID
	pool *buffer.Pool

	mu        sync.Mutex
	firstPage uint32
	lastPage  uint32
	// freeish holds recently seen pages with spare room, a small
	// free-space cache rather than a full FSM.
	freeish []uint32

	// Contention is incremented whenever a heap operation had to wait for
	// a page latch; the ILM tuner reads it per partition.
	Contention metrics.Counter
}

// New creates an empty heap for partition part backed by pool.
func New(part rid.PartitionID, pool *buffer.Pool) *Heap {
	return &Heap{part: part, pool: pool, firstPage: noPage, lastPage: noPage}
}

// Restore reattaches a heap to previously allocated pages (catalog
// snapshot load during recovery).
func Restore(part rid.PartitionID, pool *buffer.Pool, firstPage, lastPage uint32) *Heap {
	return &Heap{part: part, pool: pool, firstPage: firstPage, lastPage: lastPage}
}

// Partition returns the owning partition id.
func (h *Heap) Partition() rid.PartitionID { return h.part }

// Pages returns the first/last page ids for catalog snapshots.
func (h *Heap) Pages() (first, last uint32) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.firstPage, h.lastPage
}

// record wire format: 1 flag byte + payload.
func encodeRecord(flags byte, payload []byte) []byte {
	rec := make([]byte, 1+len(payload))
	rec[0] = flags
	copy(rec[1:], payload)
	return rec
}

func encodeForward(to rid.RID) []byte {
	rec := make([]byte, 9)
	rec[0] = flagForwarded
	binary.LittleEndian.PutUint64(rec[1:], uint64(to))
	return rec
}

// encodeMoved wraps a record relocated behind a forwarding stub. The
// payload is prefixed with the record's home RID so that scans can report
// the stable, index-visible RID.
func encodeMoved(home rid.RID, payload []byte) []byte {
	rec := make([]byte, 9+len(payload))
	rec[0] = flagMoved
	binary.LittleEndian.PutUint64(rec[1:], uint64(home))
	copy(rec[9:], payload)
	return rec
}

// Insert stores data and returns its RID.
func (h *Heap) Insert(data []byte) (rid.RID, error) {
	return h.insert(encodeRecord(0, data))
}

func (h *Heap) insert(rec []byte) (rid.RID, error) {
	if len(rec) > page.MaxRecordSize {
		return rid.Zero, fmt.Errorf("heap: record of %d bytes exceeds page capacity", len(rec))
	}
	// Try the last page, then the free-ish cache, then a fresh page.
	h.mu.Lock()
	candidates := make([]uint32, 0, 1+len(h.freeish))
	if h.lastPage != noPage {
		candidates = append(candidates, h.lastPage)
	}
	candidates = append(candidates, h.freeish...)
	h.mu.Unlock()

	for _, pid := range candidates {
		r, ok, err := h.tryInsert(pid, rec)
		if err != nil {
			return rid.Zero, err
		}
		if ok {
			return r, nil
		}
		h.dropFreeish(pid)
	}
	return h.insertNewPage(rec)
}

func (h *Heap) tryInsert(pid uint32, rec []byte) (rid.RID, bool, error) {
	f, err := h.pool.Fetch(pid)
	if err != nil {
		return rid.Zero, false, err
	}
	defer h.pool.Unpin(f, false)
	if f.Latch(true) {
		h.Contention.Inc()
	}
	defer f.Unlatch(true)
	pg := f.Page()
	if !pg.HasRoomFor(len(rec)) {
		return rid.Zero, false, nil
	}
	slot, err := pg.Insert(rec)
	if err != nil {
		return rid.Zero, false, nil
	}
	f.MarkDirty()
	return rid.NewPhysical(h.part, rid.PageID(pid), slot), true, nil
}

func (h *Heap) insertNewPage(rec []byte) (rid.RID, error) {
	pid, f, err := h.pool.NewPage(page.TypeHeap)
	if err != nil {
		return rid.Zero, err
	}
	pg := f.Page()
	slot, err := pg.Insert(rec)
	if err != nil {
		f.Unlatch(true)
		h.pool.Unpin(f, true)
		return rid.Zero, err
	}

	// Link into the chain.
	h.mu.Lock()
	prevLast := h.lastPage
	if h.firstPage == noPage {
		h.firstPage = pid
	}
	h.lastPage = pid
	h.addFreeishLocked(pid)
	h.mu.Unlock()

	pg.SetPrev(prevLast)
	f.Unlatch(true)
	h.pool.Unpin(f, true)

	if prevLast != noPage {
		pf, err := h.pool.Fetch(prevLast)
		if err != nil {
			return rid.Zero, err
		}
		if pf.Latch(true) {
			h.Contention.Inc()
		}
		pf.Page().SetNext(pid)
		pf.MarkDirty()
		pf.Unlatch(true)
		h.pool.Unpin(pf, true)
	}
	return rid.NewPhysical(h.part, rid.PageID(pid), slot), nil
}

func (h *Heap) addFreeishLocked(pid uint32) {
	const maxFreeish = 8
	for _, p := range h.freeish {
		if p == pid {
			return
		}
	}
	if len(h.freeish) >= maxFreeish {
		copy(h.freeish, h.freeish[1:])
		h.freeish = h.freeish[:maxFreeish-1]
	}
	h.freeish = append(h.freeish, pid)
}

func (h *Heap) dropFreeish(pid uint32) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, p := range h.freeish {
		if p == pid {
			h.freeish = append(h.freeish[:i], h.freeish[i+1:]...)
			return
		}
	}
}

// InsertAt places data at an exact RID; recovery redo uses it to
// reproduce historical placements. Pages are materialized as needed.
func (h *Heap) InsertAt(r rid.RID, data []byte) error {
	return h.insertAtRaw(r, encodeRecord(0, data))
}

func (h *Heap) insertAtRaw(r rid.RID, rec []byte) error {
	pid := uint32(r.Page())
	f, err := h.pool.Fetch(pid)
	if err != nil {
		return err
	}
	defer h.pool.Unpin(f, false)
	if f.Latch(true) {
		h.Contention.Inc()
	}
	defer f.Unlatch(true)
	pg := f.Page()
	if pg.Type() != page.TypeHeap {
		pg.Init(page.TypeHeap)
		h.mu.Lock()
		prevLast := h.lastPage
		if h.firstPage == noPage {
			h.firstPage = pid
		}
		h.lastPage = pid
		h.mu.Unlock()
		// Link the redone page into the chain so scans traverse it.
		pg.SetPrev(prevLast)
		if prevLast != noPage && prevLast != pid {
			pf, err := h.pool.Fetch(prevLast)
			if err != nil {
				return err
			}
			pf.Latch(true)
			pf.Page().SetNext(pid)
			pf.MarkDirty()
			pf.Unlatch(true)
			h.pool.Unpin(pf, true)
		}
	}
	if err := pg.InsertAt(r.Slot(), rec); err != nil {
		return err
	}
	f.MarkDirty()
	return nil
}

// Fetch returns a copy of the record at r, following one forwarding hop.
func (h *Heap) Fetch(r rid.RID) ([]byte, error) { return h.FetchAppend(nil, r) }

// FetchAppend is Fetch copying the record onto the end of dst, so a
// reader with a buffer of its own allocates nothing.
func (h *Heap) FetchAppend(dst []byte, r rid.RID) ([]byte, error) {
	data, fwd, err := h.fetchOnce(dst, r)
	if err != nil {
		return nil, err
	}
	if fwd != rid.Zero {
		data, fwd, err = h.fetchOnce(dst, fwd)
		if err != nil {
			return nil, err
		}
		if fwd != rid.Zero {
			return nil, fmt.Errorf("heap: forwarding chain at %v exceeds one hop", r)
		}
	}
	return data, nil
}

func (h *Heap) fetchOnce(dst []byte, r rid.RID) (data []byte, forward rid.RID, err error) {
	f, err := h.pool.Fetch(uint32(r.Page()))
	if err != nil {
		return nil, rid.Zero, err
	}
	defer h.pool.Unpin(f, false)
	if f.Latch(false) {
		h.Contention.Inc()
	}
	defer f.Unlatch(false)
	rec, err := f.Page().Read(r.Slot())
	if err != nil {
		return nil, rid.Zero, fmt.Errorf("heap: fetch %v: %w", r, err)
	}
	if rec[0]&flagForwarded != 0 {
		return nil, rid.RID(binary.LittleEndian.Uint64(rec[1:])), nil
	}
	payload := rec[1:]
	if rec[0]&flagMoved != 0 {
		payload = rec[9:] // skip the home-RID prefix
	}
	return append(dst, payload...), rid.Zero, nil
}

// Update replaces the record at r with data. If the new version does not
// fit in place, the record moves to another page behind a forwarding stub
// so r stays valid.
func (h *Heap) Update(r rid.RID, data []byte) error {
	target, err := h.resolve(r)
	if err != nil {
		return err
	}
	f, err := h.pool.Fetch(uint32(target.Page()))
	if err != nil {
		return err
	}
	if f.Latch(true) {
		h.Contention.Inc()
	}
	pg := f.Page()
	rec := encodeRecord(0, data)
	if target != r {
		rec = encodeMoved(r, data)
	}
	err = pg.Update(target.Slot(), rec)
	if err == nil {
		f.MarkDirty()
		f.Unlatch(true)
		h.pool.Unpin(f, true)
		return nil
	}
	f.Unlatch(true)
	h.pool.Unpin(f, false)
	if err != page.ErrNoRoom {
		return fmt.Errorf("heap: update %v: %w", r, err)
	}

	// Move: insert the new version elsewhere, then stub the original.
	moved, err := h.insert(encodeMoved(r, data))
	if err != nil {
		return err
	}
	return h.replaceWithStub(r, target, moved)
}

// replaceWithStub rewrites the record at orig as a forwarding stub to
// moved, deleting any previous forwarding target old (when orig != old).
func (h *Heap) replaceWithStub(orig, old, moved rid.RID) error {
	f, err := h.pool.Fetch(uint32(orig.Page()))
	if err != nil {
		return err
	}
	if f.Latch(true) {
		h.Contention.Inc()
	}
	err = f.Page().Update(orig.Slot(), encodeForward(moved))
	if err == nil {
		f.MarkDirty()
	}
	f.Unlatch(true)
	h.pool.Unpin(f, err == nil)
	if err != nil {
		return fmt.Errorf("heap: stub %v: %w", orig, err)
	}
	if old != orig {
		if derr := h.deleteAt(old); derr != nil {
			return derr
		}
	}
	return nil
}

// resolve follows a forwarding stub at r, returning the physical location
// of the record payload (r itself when not forwarded).
func (h *Heap) resolve(r rid.RID) (rid.RID, error) {
	f, err := h.pool.Fetch(uint32(r.Page()))
	if err != nil {
		return rid.Zero, err
	}
	if f.Latch(false) {
		h.Contention.Inc()
	}
	rec, err := f.Page().Read(r.Slot())
	var fwd rid.RID
	if err == nil && rec[0]&flagForwarded != 0 {
		fwd = rid.RID(binary.LittleEndian.Uint64(rec[1:]))
	}
	f.Unlatch(false)
	h.pool.Unpin(f, false)
	if err != nil {
		return rid.Zero, fmt.Errorf("heap: resolve %v: %w", r, err)
	}
	if fwd != rid.Zero {
		return fwd, nil
	}
	return r, nil
}

// Delete removes the record at r (and its forwarding target, if moved).
func (h *Heap) Delete(r rid.RID) error {
	target, err := h.resolve(r)
	if err != nil {
		return err
	}
	if err := h.deleteAt(r); err != nil {
		return err
	}
	if target != r {
		return h.deleteAt(target)
	}
	return nil
}

func (h *Heap) deleteAt(r rid.RID) error {
	f, err := h.pool.Fetch(uint32(r.Page()))
	if err != nil {
		return err
	}
	if f.Latch(true) {
		h.Contention.Inc()
	}
	err = f.Page().Delete(r.Slot())
	if err == nil {
		f.MarkDirty()
		h.mu.Lock()
		h.addFreeishLocked(uint32(r.Page()))
		h.mu.Unlock()
	}
	f.Unlatch(true)
	h.pool.Unpin(f, err == nil)
	if err != nil {
		return fmt.Errorf("heap: delete %v: %w", r, err)
	}
	return nil
}

// Scan calls fn for every live record in the heap, in page order,
// skipping forwarding stubs (the payload is visited at its moved
// location). Scanning stops early when fn returns false.
func (h *Heap) Scan(fn func(r rid.RID, data []byte) bool) error {
	h.mu.Lock()
	pid := h.firstPage
	h.mu.Unlock()
	for pid != noPage {
		f, err := h.pool.Fetch(pid)
		if err != nil {
			return err
		}
		if f.Latch(false) {
			h.Contention.Inc()
		}
		pg := f.Page()
		type item struct {
			r    rid.RID
			data []byte
		}
		var items []item
		for s := uint16(0); s < pg.NumSlots(); s++ {
			if !pg.IsLive(s) {
				continue
			}
			rec, err := pg.Read(s)
			if err != nil || rec[0]&flagForwarded != 0 {
				continue
			}
			home := rid.NewPhysical(h.part, rid.PageID(pid), s)
			payload := rec[1:]
			if rec[0]&flagMoved != 0 {
				home = rid.RID(binary.LittleEndian.Uint64(rec[1:]))
				payload = rec[9:]
			}
			cp := make([]byte, len(payload))
			copy(cp, payload)
			items = append(items, item{r: home, data: cp})
		}
		next := pg.Next()
		f.Unlatch(false)
		h.pool.Unpin(f, false)
		for _, it := range items {
			if !fn(it.r, it.data) {
				return nil
			}
		}
		pid = next
	}
	return nil
}
