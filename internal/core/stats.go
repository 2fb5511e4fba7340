package core

import (
	"sort"
	"time"

	"repro/internal/rid"
	"repro/internal/wal"
)

// LogSnapshot is one WAL's activity snapshot, including the
// group-commit pipeline's coalescing behaviour.
type LogSnapshot struct {
	Appends int64
	Flushes int64
	Bytes   int64

	// GroupFlushes / GroupedCommits: rounds and the committers they
	// served. MeanGroupSize is their ratio; GroupSizeP95 the
	// 95th-percentile committers-per-flush (bucket upper bound).
	GroupFlushes   int64
	GroupedCommits int64
	MeanGroupSize  float64
	GroupSizeP95   int64

	// Commit-wait latency as observed by WaitDurable callers.
	CommitWaitMean time.Duration
	CommitWaitP95  time.Duration
}

func logSnapshot(l *wal.Log) LogSnapshot {
	st := l.Stats()
	return LogSnapshot{
		Appends:        st.Appends.Load(),
		Flushes:        st.Flushes.Load(),
		Bytes:          st.Bytes.Load(),
		GroupFlushes:   st.GroupFlushes.Load(),
		GroupedCommits: st.GroupedCommits.Load(),
		MeanGroupSize:  l.GroupSizeHist().Mean(),
		GroupSizeP95:   l.GroupSizeHist().Quantile(0.95),
		CommitWaitMean: l.CommitWaitHist().Mean(),
		CommitWaitP95:  l.CommitWaitHist().Quantile(0.95),
	}
}

// PartitionSnapshot is one partition's observable state, feeding the
// harness's per-table figures.
type PartitionSnapshot struct {
	ID   rid.PartitionID
	Name string

	// IMRS footprint.
	IMRSRows  int64
	IMRSBytes int64

	// Cumulative operation counters.
	IMRSInserts int64
	IMRSSelects int64
	IMRSUpdates int64
	IMRSDeletes int64
	PageOps     int64
	NewRows     int64
	Migrations  int64
	Cachings    int64
	PackedRows  int64
	PackedBytes int64
	SkippedHot  int64
	Contention  int64

	// IndexContention is the table's B+tree latch-wait total (shared
	// across a table's partitions; the tuner folds it into Contention).
	IndexContention int64

	// InsertEnabled reflects the auto-partition-tuning state.
	InsertEnabled bool

	// Cold-store residency: rows frozen into this partition's column
	// segments and the raw-vs-compressed footprint.
	ColdSegments        int64
	ColdRows            int64
	ColdLiveRows        int64
	ColdRawBytes        int64
	ColdCompressedBytes int64
}

// ColdRatio returns compressed/raw for this partition's segments
// (0 when nothing is frozen).
func (p PartitionSnapshot) ColdRatio() float64 {
	if p.ColdRawBytes == 0 {
		return 0
	}
	return float64(p.ColdCompressedBytes) / float64(p.ColdRawBytes)
}

// ColdStoreSnapshot is the engine-wide cold-store view: segment counts,
// row residency, compression footprint, and the un-freeze traffic that
// pulls rows back out of segments.
type ColdStoreSnapshot struct {
	Segments        int64 // segments currently published
	SegmentsWritten int64 // segments ever published (includes superseded)
	RowsFrozen      int64 // rows ever frozen into segments
	RowsLive        int64 // segment rows still live (not killed)
	Kills           int64 // segment-row kills (un-freeze, delete, re-freeze)
	Unfreezes       int64 // updates that pulled a frozen row back out
	RawBytes        int64 // pre-compression footprint of published segments
	CompressedBytes int64 // on-blob footprint of published segments
}

// Ratio returns compressed/raw across all published segments (0 when
// nothing is frozen).
func (c ColdStoreSnapshot) Ratio() float64 {
	if c.RawBytes == 0 {
		return 0
	}
	return float64(c.CompressedBytes) / float64(c.RawBytes)
}

// IndexSnapshot is one index's observable state: B+tree latch traffic
// and, when the IMRS hash fast path is mounted, its occupancy. The
// hash table grows with its entries, so HashLoadFactor stays ≤ 1.
type IndexSnapshot struct {
	Table  string
	Name   string
	Unique bool

	// B+tree concurrency counters.
	LatchWaits int64 // contested frame latches during traversals
	Restarts   int64 // optimistic-insert fallbacks + root-split retries

	// Hash fast path occupancy; zero-valued when no hash is mounted.
	HashEntries    int
	HashBuckets    int
	HashLoadFactor float64
	HashHits       int64
	HashMisses     int64
}

// ReuseOps returns IMRS S+U+D (the paper's reuse operations).
func (p PartitionSnapshot) ReuseOps() int64 {
	return p.IMRSSelects + p.IMRSUpdates + p.IMRSDeletes
}

// IMRSOps returns all operations served by the IMRS.
func (p PartitionSnapshot) IMRSOps() int64 {
	return p.IMRSInserts + p.ReuseOps()
}

// RecoveryPhase is one timed phase of the last recovery run.
type RecoveryPhase struct {
	Name     string
	Duration time.Duration
	// Items is what the phase processed: bytes truncated (tail repair),
	// records scanned/applied (analyze, redo, replay), rows indexed, or
	// entries enqueued.
	Items int64
	// Workers is how many worker goroutines ran the phase (1 = serial).
	Workers int
}

// RecoverySnapshot describes the last recovery run (Open time).
type RecoverySnapshot struct {
	// Ran is false when Open found a fresh database.
	Ran bool
	// Threads is the configured Config.RecoveryThreads bound.
	Threads int
	// Total is the wall time of the whole recovery pipeline.
	Total  time.Duration
	Phases []RecoveryPhase

	SyslogRecords int64 // syslogs records scanned by analysis
	IMRSRecords   int64 // committed IMRS operations replayed
	RedoConflicts int64 // physical slot conflicts reconciled by redo
	//                        (a failed-sync commit's records survived on
	//                        disk while the live engine rolled it back;
	//                        later committed work disagreed on the slot)
	RowsIndexed      int64 // rows fed to the index rebuild
	EntriesEnqueued  int64 // IMRS entries re-enqueued on pack queues
	EntriesReclaimed int64 // dead recovered entries reclaimed (leak fix)

	// In-doubt 2PC resolution (zero on engines without cross-shard
	// traffic; the conditional indoubt-resolve phase).
	InDoubt           int64 // prepared txns found with no local outcome
	InDoubtCommitted  int64 // resolved commit via the coordinator's decision
	InDoubtAborted    int64 // resolved abort (explicit or presumed)
	InDoubtUnresolved int64 // unresolvable → engine parked ReadOnly
}

// TwoPCSnapshot is the engine's cross-shard commit accounting.
type TwoPCSnapshot struct {
	Prepares        int64 // participant prepares made durable
	PreparedCommits int64 // prepared transactions committed
	PreparedAborts  int64 // prepared transactions rolled back
	Decisions       int64 // coordinator decision records logged
}

// Snapshot is an engine-wide stats snapshot.
type Snapshot struct {
	CommitTS uint64

	IMRSUsedBytes int64
	IMRSCapacity  int64
	IMRSRows      int64

	RowsPacked  int64
	BytesPacked int64
	RowsSkipped int64
	PackCycles  int64

	TSFTau     uint64
	TSFLearned int64

	BufferHits    int64
	BufferMisses  int64
	LatchWaits    int64
	GCVersions    int64
	GCEntries     int64
	GCPasses      int64 // IMRS-GC passes that drained or freed work
	AcceptNewRows bool

	// Fragment-allocator traffic: IMRSAllocs/IMRSFrees count fragment
	// round trips; IMRSSlabGrabs counts new 1 MiB slabs — a plateau
	// means the free lists are feeding the hot path.
	IMRSAllocs    int64
	IMRSFrees     int64
	IMRSSlabGrabs int64

	// RIDMapLive is the RID map's live entry count (packed entries
	// awaiting the GC sweep excluded — see ridmap.Map.Len vs LenRaw).
	RIDMapLive int64

	// IndexLevelLatchWaits attributes contested B+tree frame latches to
	// tree levels (index 0 = root; the last bucket absorbs deeper
	// levels). Separates hot-root contention from leaf contention.
	IndexLevelLatchWaits []int64

	// SysLog / IMRSLog snapshot the two WALs and their commit pipelines.
	SysLog  LogSnapshot
	IMRSLog LogSnapshot

	// Recovery describes the last recovery run (zero-valued Ran=false
	// when the engine opened a fresh database).
	Recovery RecoverySnapshot

	// TwoPC counts cross-shard commit activity (zero on standalone
	// engines).
	TwoPC TwoPCSnapshot

	// Checkpoints / CheckpointFailures count completed and failed
	// checkpoint attempts (background and explicit). LastCheckpointError
	// is the most recent failure not yet surfaced to a caller ("" when
	// checkpoints are healthy).
	Checkpoints         int64
	CheckpointFailures  int64
	LastCheckpointError string

	// PackRelocErrors counts failed pack relocation transactions (the
	// entries go back on their queues; repeated streaks degrade Health).
	PackRelocErrors int64

	// ColdStore summarizes the columnar cold store (zero-valued when
	// nothing has been frozen).
	ColdStore ColdStoreSnapshot

	// Health is the engine state machine's view: current state, active
	// degraded causes, the sticky read-only cause, transition history,
	// and the retry-layer counters.
	Health HealthSnapshot

	Partitions []PartitionSnapshot
	Indexes    []IndexSnapshot
}

// IMRSHitRate returns the fraction of all row operations served by the
// IMRS (the paper's "% operations in the IMRS").
func (s Snapshot) IMRSHitRate() float64 {
	var imrsOps, pageOps int64
	for _, p := range s.Partitions {
		imrsOps += p.IMRSOps()
		pageOps += p.PageOps
	}
	total := imrsOps + pageOps
	if total == 0 {
		return 0
	}
	return float64(imrsOps) / float64(total)
}

// recoverySnapshot copies the last recovery run's record.
func (e *Engine) recoverySnapshot() RecoverySnapshot {
	ri := &e.recovery
	rs := RecoverySnapshot{
		Ran:              ri.ran,
		Threads:          ri.threads,
		Total:            ri.total,
		SyslogRecords:    ri.syslogRecords,
		IMRSRecords:      ri.imrsRecords,
		RedoConflicts:    ri.redoConflicts,
		RowsIndexed:      ri.rowsIndexed.Load(),
		EntriesEnqueued:  ri.entriesEnqueued,
		EntriesReclaimed: ri.entriesReclaimed.Load(),

		InDoubt:           ri.inDoubt,
		InDoubtCommitted:  ri.inDoubtCommitted,
		InDoubtAborted:    ri.inDoubtAborted,
		InDoubtUnresolved: ri.inDoubtUnresolved,
	}
	for _, p := range ri.phases.Snapshot() {
		rs.Phases = append(rs.Phases, RecoveryPhase{
			Name: p.Name, Duration: p.Duration, Items: p.Items, Workers: p.Workers,
		})
	}
	return rs
}

// Stats collects a consistent-enough snapshot of the engine state.
func (e *Engine) Stats() Snapshot {
	e.ckptMu.RLock()
	syslog, imrslog := e.syslog, e.imrslog // imrslog swaps under ckptMu (compaction)
	e.ckptMu.RUnlock()
	s := Snapshot{
		CommitTS:      e.clock.Now(),
		IMRSUsedBytes: e.store.Allocator().Used(),
		IMRSCapacity:  e.store.Allocator().Capacity(),
		IMRSRows:      e.store.Rows(),
		RowsPacked:    e.packer.RowsPacked.Load(),
		BytesPacked:   e.packer.BytesPacked.Load(),
		RowsSkipped:   e.packer.RowsSkipped.Load(),
		PackCycles:    e.packer.Cycles.Load(),
		TSFTau:        e.tsf.Tau(),
		TSFLearned:    e.tsf.Learned(),
		BufferHits:    e.pool.Stats().Hits.Load(),
		BufferMisses:  e.pool.Stats().Misses.Load(),
		LatchWaits:    e.pool.Stats().LatchWaits.Load(),
		GCVersions:    e.gc.VersionsFreed.Load(),
		GCEntries:     e.gc.EntriesFreed.Load(),
		GCPasses:      e.gc.Passes.Load(),
		IMRSAllocs:    e.store.Allocator().Allocs.Load(),
		IMRSFrees:     e.store.Allocator().Frees.Load(),
		IMRSSlabGrabs: e.store.Allocator().SlabGrabs.Load(),
		AcceptNewRows: e.packer.AcceptNewRows(),
		SysLog:        logSnapshot(syslog),
		IMRSLog:       logSnapshot(imrslog),
		Recovery:      e.recoverySnapshot(),
		Checkpoints:   e.ckptCompleted.Load(),
		TwoPC: TwoPCSnapshot{
			Prepares:        e.twopc.prepares.Load(),
			PreparedCommits: e.twopc.preparedCommits.Load(),
			PreparedAborts:  e.twopc.preparedAborts.Load(),
			Decisions:       e.twopc.decisions.Load(),
		},
	}
	s.PackRelocErrors = e.packer.RelocErrors.Load()
	cs := e.cold.Stats()
	s.ColdStore = ColdStoreSnapshot{
		Segments:        int64(cs.Segments),
		SegmentsWritten: cs.SegmentsWritten,
		RowsFrozen:      cs.RowsFrozen,
		RowsLive:        cs.RowsLive,
		Kills:           cs.Kills,
		Unfreezes:       e.unfreezes.Load(),
		RawBytes:        cs.RawBytes,
		CompressedBytes: cs.CompressedBytes,
	}
	s.Health = e.Health()
	s.CheckpointFailures = e.ckptFailed.Load()
	e.ckptFailMu.Lock()
	if e.ckptLastErr != nil {
		s.LastCheckpointError = e.ckptLastErr.Error()
	}
	e.ckptFailMu.Unlock()
	for _, ps := range e.ilmReg.All() {
		st := e.store.Part(ps.ID)
		snap := PartitionSnapshot{
			ID:            ps.ID,
			Name:          ps.Name,
			IMRSRows:      st.Rows.Load(),
			IMRSBytes:     st.Bytes.Load(),
			IMRSInserts:   ps.IMRSInserts.Load(),
			IMRSSelects:   ps.IMRSSelects.Load(),
			IMRSUpdates:   ps.IMRSUpdates.Load(),
			IMRSDeletes:   ps.IMRSDeletes.Load(),
			PageOps:       ps.PageOps.Load(),
			NewRows:       ps.NewRows.Load(),
			Migrations:    ps.Migrations.Load(),
			Cachings:      ps.Cachings.Load(),
			PackedRows:    ps.PackedRows.Load(),
			PackedBytes:   ps.PackedBytes.Load(),
			SkippedHot:    ps.SkippedHot.Load(),
			InsertEnabled: ps.Enabled(0),
		}
		if ps.ContentionFn != nil {
			snap.Contention = ps.ContentionFn()
		}
		if ps.IndexContentionFn != nil {
			snap.IndexContention = ps.IndexContentionFn()
		}
		pcs := e.cold.PartStats(ps.ID)
		snap.ColdSegments = int64(pcs.Segments)
		snap.ColdRows = pcs.Rows
		snap.ColdLiveRows = pcs.LiveRows
		snap.ColdRawBytes = pcs.RawBytes
		snap.ColdCompressedBytes = pcs.CompressedBytes
		s.Partitions = append(s.Partitions, snap)
	}
	s.RIDMapLive = int64(e.rmap.Len())
	s.IndexLevelLatchWaits = e.pool.Stats().IndexWaitsByLevel()
	e.mu.RLock()
	for tname, rt := range e.tables {
		for _, ix := range rt.indexes {
			is := IndexSnapshot{
				Table:      tname,
				Name:       ix.def.Name,
				Unique:     ix.def.Unique,
				LatchWaits: ix.tree.LatchWaits(),
				Restarts:   ix.tree.Restarts(),
			}
			if ix.hash != nil {
				is.HashEntries = ix.hash.Len()
				is.HashBuckets = ix.hash.Buckets()
				is.HashLoadFactor = ix.hash.LoadFactor()
				is.HashHits = ix.hash.Hits.Load()
				is.HashMisses = ix.hash.Misses.Load()
			}
			s.Indexes = append(s.Indexes, is)
		}
	}
	e.mu.RUnlock()
	sort.Slice(s.Indexes, func(i, j int) bool {
		if s.Indexes[i].Table != s.Indexes[j].Table {
			return s.Indexes[i].Table < s.Indexes[j].Table
		}
		return s.Indexes[i].Name < s.Indexes[j].Name
	})
	return s
}
