package imrs

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/rid"
)

// Origin records which operation brought a row into the IMRS. The pack
// subsystem keeps one relaxed-LRU queue per partition per origin (paper
// Section VI-B), because hotness characteristics differ per origin.
type Origin uint8

// Row origins.
const (
	OriginInserted Origin = iota // fresh insert, no page-store footprint
	OriginMigrated               // updated from page store into the IMRS
	OriginCached                 // selected from page store and cached
)

// NumOrigins is the number of Origin values.
const NumOrigins = 3

// String implements fmt.Stringer.
func (o Origin) String() string {
	switch o {
	case OriginInserted:
		return "inserted"
	case OriginMigrated:
		return "migrated"
	case OriginCached:
		return "cached"
	default:
		return fmt.Sprintf("origin(%d)", uint8(o))
	}
}

// Version is one image of a row in the IMRS version chain. A version
// with commitTS 0 is uncommitted and owned by TxnID (writers are
// serialized per row by the lock manager, so at most one uncommitted
// version exists per entry).
type Version struct {
	// frag is atomic: IMRS-GC frees superseded versions' fragments while
	// readers and pack threads may still be walking the chain.
	frag     atomic.Pointer[Fragment]
	commitTS atomic.Uint64
	TxnID    uint64
	Deleted  bool
	older    atomic.Pointer[Version]
}

// Older returns the next-older version in the chain, or nil.
func (v *Version) Older() *Version { return v.older.Load() }

// TruncateOlder severs the chain below v. IMRS-GC calls it once no
// reader can reach a version below v.
func (v *Version) TruncateOlder() { v.older.Store(nil) }

// Data returns the row image (nil for delete tombstones and reclaimed
// versions).
func (v *Version) Data() []byte {
	f := v.frag.Load()
	if f == nil {
		return nil
	}
	return f.Bytes()
}

// CommitTS returns the version's commit timestamp (0 if uncommitted).
func (v *Version) CommitTS() uint64 { return v.commitTS.Load() }

// Committed reports whether the version has committed.
func (v *Version) Committed() bool { return v.commitTS.Load() != 0 }

// Size returns the accounted fragment size (0 for tombstones and
// reclaimed versions).
func (v *Version) Size() int {
	f := v.frag.Load()
	if f == nil {
		return 0
	}
	return f.Size()
}

// Entry is an IMRS-resident row: a RID, the version chain, a loose
// last-access timestamp (commit-timestamp units, per the paper's TSF),
// and intrusive linkage for the pack subsystem's relaxed LRU queues.
type Entry struct {
	RID    rid.RID
	Part   rid.PartitionID
	Origin Origin

	head       atomic.Pointer[Version]
	lastAccess atomic.Uint64

	// Pack-queue intrusive linkage; guarded by the owning queue's mutex.
	// qseq is a monotone enqueue stamp used by queue-position analyses.
	qnext, qprev *Entry
	enqueued     bool
	qseq         uint64

	// packed marks entries relocated out of the IMRS (or fully deleted);
	// lookups treat packed entries as absent.
	packed atomic.Bool

	// dirty marks entries whose newest image differs from (or does not
	// exist in) the page store: inserted and migrated rows always, cached
	// rows once updated. Pack writes dirty entries back; clean cached
	// entries are simply dropped.
	dirty atomic.Bool

	// logged marks entries whose newest committed image sysimrslogs
	// already holds (as an image, or as a delta on one it holds), so an
	// update may log only the columns it changes. A cached row is not
	// logged until an update of it logs its whole image and publishes.
	logged atomic.Bool
}

// MarkDirty flags the entry as diverged from the page store.
func (e *Entry) MarkDirty() { e.dirty.Store(true) }

// MarkLogged records that sysimrslogs holds the entry's newest
// committed image.
func (e *Entry) MarkLogged() { e.logged.Store(true) }

// Logged reports whether sysimrslogs holds the entry's newest committed
// image.
func (e *Entry) Logged() bool { return e.logged.Load() }

// Dirty reports whether pack must write the entry back.
func (e *Entry) Dirty() bool { return e.dirty.Load() }

// Head returns the newest version (possibly uncommitted).
func (e *Entry) Head() *Version { return e.head.Load() }

// Touch advances the entry's last-access timestamp to ts if newer. Both
// SELECT and UPDATE accesses count (paper Section VI-D); deletes do not.
func (e *Entry) Touch(ts uint64) {
	for {
		cur := e.lastAccess.Load()
		if cur >= ts || e.lastAccess.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// LastAccess returns the loose last-access timestamp.
func (e *Entry) LastAccess() uint64 { return e.lastAccess.Load() }

// MarkPacked flags the entry as no longer IMRS-resident. It reports
// whether this call made the transition (false if already packed).
func (e *Entry) MarkPacked() bool { return !e.packed.Swap(true) }

// Packed reports whether the entry has been packed/removed.
func (e *Entry) Packed() bool { return e.packed.Load() }

// Visible returns the version a reader at snapshot snap should see, or
// nil when the row is invisible (not yet committed for this snapshot, or
// deleted). A reader that is itself transaction selfTxn sees its own
// uncommitted version.
func (e *Entry) Visible(snap uint64, selfTxn uint64) *Version {
	for v := e.head.Load(); v != nil; v = v.older.Load() {
		ts := v.commitTS.Load()
		if ts == 0 {
			if selfTxn != 0 && v.TxnID == selfTxn {
				if v.Deleted {
					return nil
				}
				return v
			}
			continue
		}
		if ts <= snap {
			if v.Deleted {
				return nil
			}
			return v
		}
	}
	return nil
}

// LiveBytes sums the accounted fragment sizes of all versions currently
// chained on the entry.
func (e *Entry) LiveBytes() int {
	n := 0
	for v := e.head.Load(); v != nil; v = v.older.Load() {
		n += v.Size()
	}
	return n
}

// PartStats is the per-partition IMRS footprint, feeding the paper's
// Cache Utilization Index and the per-table footprint figures.
type PartStats struct {
	Rows  metrics.Gauge // live IMRS entries
	Bytes metrics.Gauge // accounted fragment bytes
}

// Store is the IMRS: the fragment allocator plus entry/version life
// cycle and per-partition accounting. Entries are indexed externally by
// the RID-Map.
type Store struct {
	alloc *Allocator

	// parts is copied on write: the row path reads it without a lock,
	// and it changes only when a partition gains IMRS state.
	parts  atomic.Pointer[map[rid.PartitionID]*PartStats]
	partMu sync.Mutex // serializes the copies

	rows metrics.Gauge
}

// NewStore creates a store over an allocator of the given capacity.
func NewStore(capacityBytes int64) *Store {
	s := &Store{alloc: NewAllocator(capacityBytes)}
	s.parts.Store(&map[rid.PartitionID]*PartStats{})
	return s
}

// Allocator exposes the fragment memory manager.
func (s *Store) Allocator() *Allocator { return s.alloc }

// Rows returns the number of live IMRS entries.
func (s *Store) Rows() int64 { return s.rows.Load() }

// Part returns (creating on first use) the stats block for a partition.
func (s *Store) Part(p rid.PartitionID) *PartStats {
	if ps, ok := (*s.parts.Load())[p]; ok {
		return ps
	}
	s.partMu.Lock()
	defer s.partMu.Unlock()
	old := *s.parts.Load()
	if ps, ok := old[p]; ok {
		return ps
	}
	next := maps.Clone(old)
	ps := &PartStats{}
	next[p] = ps
	s.parts.Store(&next)
	return ps
}

// Partitions calls fn for every partition with IMRS state.
func (s *Store) Partitions(fn func(rid.PartitionID, *PartStats)) {
	for p, ps := range *s.parts.Load() {
		fn(p, ps)
	}
}

// CreateEntry makes a new IMRS entry whose first (uncommitted) version
// holds data. The caller publishes it in the RID map and commits or
// aborts it later.
func (s *Store) CreateEntry(r rid.RID, part rid.PartitionID, origin Origin, data []byte, txnID uint64) (*Entry, error) {
	frag, err := s.alloc.Alloc(data)
	if err != nil {
		return nil, err
	}
	e := &Entry{RID: r, Part: part, Origin: origin}
	v := &Version{TxnID: txnID}
	v.frag.Store(frag)
	e.head.Store(v)
	ps := s.Part(part)
	ps.Rows.Add(1)
	ps.Bytes.Add(int64(frag.Size()))
	s.rows.Add(1)
	return e, nil
}

// CreateEntryFunc is CreateEntry with the payload encoded in place by
// fill (see Allocator.AllocFunc): one fragment allocation, no
// intermediate encode buffer.
func (s *Store) CreateEntryFunc(r rid.RID, part rid.PartitionID, origin Origin, size int, fill func(dst []byte) []byte, txnID uint64) (*Entry, error) {
	frag, err := s.alloc.AllocFunc(size, fill)
	if err != nil {
		return nil, err
	}
	e := &Entry{RID: r, Part: part, Origin: origin}
	v := &Version{TxnID: txnID}
	v.frag.Store(frag)
	e.head.Store(v)
	ps := s.Part(part)
	ps.Rows.Add(1)
	ps.Bytes.Add(int64(frag.Size()))
	s.rows.Add(1)
	return e, nil
}

// AddVersion pushes a new uncommitted version holding data onto e.
// The caller must hold e's row lock.
func (s *Store) AddVersion(e *Entry, data []byte, txnID uint64) (*Version, error) {
	frag, err := s.alloc.Alloc(data)
	if err != nil {
		return nil, err
	}
	v := &Version{TxnID: txnID}
	v.frag.Store(frag)
	v.older.Store(e.head.Load())
	e.head.Store(v)
	s.Part(e.Part).Bytes.Add(int64(frag.Size()))
	return v, nil
}

// AddVersionFunc is AddVersion with the payload encoded in place by
// fill (see Allocator.AllocFunc). The caller must hold e's row lock.
func (s *Store) AddVersionFunc(e *Entry, size int, fill func(dst []byte) []byte, txnID uint64) (*Version, error) {
	frag, err := s.alloc.AllocFunc(size, fill)
	if err != nil {
		return nil, err
	}
	v := &Version{TxnID: txnID}
	v.frag.Store(frag)
	v.older.Store(e.head.Load())
	e.head.Store(v)
	s.Part(e.Part).Bytes.Add(int64(frag.Size()))
	return v, nil
}

// AddTombstone pushes an uncommitted delete marker onto e. The caller
// must hold e's row lock.
func (s *Store) AddTombstone(e *Entry, txnID uint64) *Version {
	v := &Version{TxnID: txnID, Deleted: true}
	v.older.Store(e.head.Load())
	e.head.Store(v)
	return v
}

// Commit stamps v with commit timestamp ts, making it visible.
func (s *Store) Commit(v *Version, ts uint64) { v.commitTS.Store(ts) }

// AbortVersion unlinks an uncommitted head version from e, releasing its
// fragment. The caller must hold e's row lock. It reports whether the
// entry still has any version (false means the entry was insert-aborted
// and should be unpublished).
func (s *Store) AbortVersion(e *Entry, v *Version) bool {
	if e.head.Load() != v {
		panic("imrs: abort of non-head version")
	}
	older := v.older.Load()
	e.head.Store(older)
	if f := v.frag.Swap(nil); f != nil {
		s.Part(e.Part).Bytes.Add(-int64(f.Size()))
		s.alloc.Free(f)
	}
	if older == nil {
		s.dropEntryAccounting(e)
		return false
	}
	return true
}

// FreeVersion releases a superseded committed version's fragment (called
// by IMRS-GC once no reader can reach it).
func (s *Store) FreeVersion(part rid.PartitionID, v *Version) {
	f := v.frag.Swap(nil)
	if f == nil {
		return
	}
	s.Part(part).Bytes.Add(-int64(f.Size()))
	s.alloc.Free(f)
}

// RemoveEntry releases every remaining version of e (pack or
// delete-GC). The entry must already be unpublished from the RID map.
func (s *Store) RemoveEntry(e *Entry) {
	for v := e.head.Load(); v != nil; v = v.older.Load() {
		if f := v.frag.Swap(nil); f != nil {
			s.Part(e.Part).Bytes.Add(-int64(f.Size()))
			s.alloc.Free(f)
		}
	}
	e.head.Store(nil)
	s.dropEntryAccounting(e)
}

func (s *Store) dropEntryAccounting(e *Entry) {
	s.Part(e.Part).Rows.Add(-1)
	s.rows.Add(-1)
}
