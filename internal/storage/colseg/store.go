package colseg

import (
	"sync"
	"sync/atomic"

	"repro/internal/rid"
)

const storeShards = 64

// ref locates one row inside one segment.
type ref struct {
	seg *Segment
	idx int32
}

type shard struct {
	mu sync.RWMutex
	m  map[rid.RID]ref
}

// Store is the in-memory cold-store directory: a sharded map from RID to
// the *newest* segment copy of that row, plus the per-partition segment
// lists scans walk.
//
// Lifecycle invariants the engine relies on:
//
//   - Kill marks a row dead (un-freeze or delete) but leaves the map
//     entry in place: the map always answers "where is the newest cold
//     copy". The kill records its kind with its timestamp: a versioned
//     kill's copy stays readable for snapshots older than the kill, a
//     read-committed kill's for none (Segment.Visible).
//   - Publish overwrites map entries (newest copy wins) and stamps each
//     copy it supersedes with the new segment's FreezeTS, so "newest at
//     timestamp ts" is one atomic load (Segment.NewestAt).
//   - Because a live cold row is killed on its first dirtying write (it
//     moves back to the IMRS/page path), a RID is never live in two
//     segments at once.
//   - No segment is ever dropped: killed rows stay in their blob.
type Store struct {
	shards [storeShards]shard

	mu    sync.RWMutex
	parts map[rid.PartitionID][]*Segment

	segmentsWritten atomic.Int64
	rowsFrozen      atomic.Int64
	kills           atomic.Int64
	rawBytes        atomic.Int64
	compBytes       atomic.Int64
}

// NewStore returns an empty Store.
func NewStore() *Store {
	s := &Store{parts: make(map[rid.PartitionID][]*Segment)}
	for i := range s.shards {
		s.shards[i].m = make(map[rid.RID]ref)
	}
	return s
}

func (s *Store) shardFor(r rid.RID) *shard {
	h := uint64(r)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return &s.shards[h%storeShards]
}

// Publish registers seg's rows as the newest cold copies of their RIDs
// and appends seg to its partition's segment list. seg.FreezeTS must be
// set. Rows of older segments that are overwritten keep their kill state
// and are stamped superseded as of seg.FreezeTS.
func (s *Store) Publish(seg *Segment) {
	for i, r := range seg.rids {
		sh := s.shardFor(r)
		sh.mu.Lock()
		if old, ok := sh.m[r]; ok {
			old.seg.sup[old.idx].Store(seg.FreezeTS)
		}
		sh.m[r] = ref{seg: seg, idx: int32(i)}
		sh.mu.Unlock()
	}
	s.mu.Lock()
	s.parts[seg.part] = append(s.parts[seg.part], seg)
	s.mu.Unlock()
	s.segmentsWritten.Add(1)
	s.rowsFrozen.Add(int64(seg.rows))
	s.rawBytes.Add(seg.rawBytes)
	s.compBytes.Add(int64(len(seg.blob)))
}

// Lookup returns the newest cold copy of r: its segment, row index, and
// kill timestamp (0 = live). ok is false when r has never been frozen.
func (s *Store) Lookup(r rid.RID) (*Segment, int, uint64, bool) {
	sh := s.shardFor(r)
	sh.mu.RLock()
	rf, ok := sh.m[r]
	sh.mu.RUnlock()
	if !ok {
		return nil, 0, 0, false
	}
	return rf.seg, int(rf.idx), rf.seg.KillTS(int(rf.idx)), true
}

// Kill marks the newest cold copy of r dead as of commit timestamp ts
// (> 0). versioned keeps the copy the image of snapshots older than ts
// (the row's newer image is snapshot-versioned in the IMRS); otherwise
// the kill is read-committed. Reports whether a live copy was present.
func (s *Store) Kill(r rid.RID, ts uint64, versioned bool) bool {
	sh := s.shardFor(r)
	sh.mu.RLock()
	rf, ok := sh.m[r]
	sh.mu.RUnlock()
	if !ok {
		return false
	}
	k := ts << 1
	if versioned {
		k |= 1
	}
	if !rf.seg.kill[rf.idx].CompareAndSwap(0, k) {
		return false
	}
	rf.seg.live.Add(-1)
	s.kills.Add(1)
	return true
}

// AppendSegments appends partition p's segments to dst in publish order.
func (s *Store) AppendSegments(dst []*Segment, p rid.PartitionID) []*Segment {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append(dst, s.parts[p]...)
}

// Stats is a point-in-time cold-store summary.
type Stats struct {
	Segments        int   // segments currently resident
	SegmentsWritten int64 // cumulative Publish count
	RowsFrozen      int64 // cumulative rows published
	RowsLive        int64 // segment rows with no kill timestamp
	Kills           int64 // cumulative row kills (un-freeze + delete)
	RawBytes        int64 // cumulative pre-compression row bytes
	CompressedBytes int64 // cumulative encoded segment bytes
}

// PartStats summarizes one partition's resident segments.
type PartStats struct {
	Segments        int
	Rows            int64
	LiveRows        int64
	RawBytes        int64
	CompressedBytes int64
}

// Stats returns store-wide counters.
func (s *Store) Stats() Stats {
	st := Stats{
		SegmentsWritten: s.segmentsWritten.Load(),
		RowsFrozen:      s.rowsFrozen.Load(),
		Kills:           s.kills.Load(),
		RawBytes:        s.rawBytes.Load(),
		CompressedBytes: s.compBytes.Load(),
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, segs := range s.parts {
		st.Segments += len(segs)
		for _, sg := range segs {
			st.RowsLive += sg.live.Load()
		}
	}
	return st
}

// PartStats returns partition p's resident-segment summary.
func (s *Store) PartStats(p rid.PartitionID) PartStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var ps PartStats
	for _, sg := range s.parts[p] {
		ps.Segments++
		ps.Rows += int64(sg.rows)
		ps.LiveRows += sg.live.Load()
		ps.RawBytes += sg.rawBytes
		ps.CompressedBytes += int64(len(sg.blob))
	}
	return ps
}
