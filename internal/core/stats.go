package core

import (
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/rid"
	"repro/internal/storage/colseg"
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

// add merges another shard's log: counters sum, the mean group size is
// recomputed from the sums, and the quantile and waits keep the worst
// shard (a node commits only as fast as its slowest log).
func (l *LogSnapshot) add(o LogSnapshot) {
	l.Appends += o.Appends
	l.Flushes += o.Flushes
	l.Bytes += o.Bytes
	l.GroupFlushes += o.GroupFlushes
	l.GroupedCommits += o.GroupedCommits
	if l.GroupFlushes > 0 {
		l.MeanGroupSize = float64(l.GroupedCommits) / float64(l.GroupFlushes)
	}
	l.GroupSizeP95 = max(l.GroupSizeP95, o.GroupSizeP95)
	l.CommitWaitMean = max(l.CommitWaitMean, o.CommitWaitMean)
	l.CommitWaitP95 = max(l.CommitWaitP95, o.CommitWaitP95)
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

	// Cold is the partition's cold-store residency: rows frozen into its
	// column segments and their raw-vs-compressed footprint.
	Cold colseg.PartStats
}

// add merges the same-named partition of another shard: counters and
// footprints sum, and the partition takes IMRS inserts if either does.
// ID stays the first shard's (DDL runs on every shard in one order).
func (p *PartitionSnapshot) add(o PartitionSnapshot) {
	p.IMRSRows += o.IMRSRows
	p.IMRSBytes += o.IMRSBytes
	p.IMRSInserts += o.IMRSInserts
	p.IMRSSelects += o.IMRSSelects
	p.IMRSUpdates += o.IMRSUpdates
	p.IMRSDeletes += o.IMRSDeletes
	p.PageOps += o.PageOps
	p.NewRows += o.NewRows
	p.Migrations += o.Migrations
	p.Cachings += o.Cachings
	p.PackedRows += o.PackedRows
	p.PackedBytes += o.PackedBytes
	p.SkippedHot += o.SkippedHot
	p.Contention += o.Contention
	p.IndexContention += o.IndexContention
	p.InsertEnabled = p.InsertEnabled || o.InsertEnabled
	p.Cold.Segments += o.Cold.Segments
	p.Cold.Rows += o.Cold.Rows
	p.Cold.LiveRows += o.Cold.LiveRows
	p.Cold.RawBytes += o.Cold.RawBytes
	p.Cold.CompressedBytes += o.Cold.CompressedBytes
}

// ColdStoreSnapshot is the engine-wide cold-store view: the store's own
// totals plus the un-freeze traffic that pulls rows back out of
// segments.
type ColdStoreSnapshot struct {
	colseg.Stats
	Unfreezes int64 // updates that pulled a frozen row back out
}

// add sums another shard's cold store.
func (c *ColdStoreSnapshot) add(o ColdStoreSnapshot) {
	c.Segments += o.Segments
	c.SegmentsWritten += o.SegmentsWritten
	c.RowsFrozen += o.RowsFrozen
	c.RowsLive += o.RowsLive
	c.Kills += o.Kills
	c.RawBytes += o.RawBytes
	c.CompressedBytes += o.CompressedBytes
	c.Unfreezes += o.Unfreezes
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

// add merges the same index on another shard: counters and occupancy
// sum, and the load factor is recomputed from the sums.
func (ix *IndexSnapshot) add(o IndexSnapshot) {
	ix.LatchWaits += o.LatchWaits
	ix.Restarts += o.Restarts
	ix.HashEntries += o.HashEntries
	ix.HashBuckets += o.HashBuckets
	if ix.HashBuckets > 0 {
		ix.HashLoadFactor = float64(ix.HashEntries) / float64(ix.HashBuckets)
	}
	ix.HashHits += o.HashHits
	ix.HashMisses += o.HashMisses
}

// ReuseOps returns IMRS S+U+D (the paper's reuse operations).
func (p PartitionSnapshot) ReuseOps() int64 {
	return p.IMRSSelects + p.IMRSUpdates + p.IMRSDeletes
}

// IMRSOps returns all operations served by the IMRS.
func (p PartitionSnapshot) IMRSOps() int64 {
	return p.IMRSInserts + p.ReuseOps()
}

// RecoverySnapshot describes the last recovery run (Open time).
type RecoverySnapshot struct {
	// Ran is false when Open found a fresh database.
	Ran bool
	// Threads is the configured Config.RecoveryThreads bound.
	Threads int
	// Total is the wall time of the whole recovery pipeline. Phases
	// breaks it down; a phase's Items is what it processed: bytes
	// truncated (tail repair), records scanned/applied (analyze, redo,
	// replay), rows indexed, or entries enqueued.
	Total  time.Duration
	Phases []metrics.PhaseStat

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

// add merges another shard's recovery. The shards recover concurrently,
// so Total is the slowest shard's; counters sum. Rollup merges Phases.
func (r *RecoverySnapshot) add(o RecoverySnapshot) {
	r.Ran = r.Ran || o.Ran
	r.Threads = max(r.Threads, o.Threads)
	r.Total = max(r.Total, o.Total)
	r.SyslogRecords += o.SyslogRecords
	r.IMRSRecords += o.IMRSRecords
	r.RedoConflicts += o.RedoConflicts
	r.RowsIndexed += o.RowsIndexed
	r.EntriesEnqueued += o.EntriesEnqueued
	r.EntriesReclaimed += o.EntriesReclaimed
	r.InDoubt += o.InDoubt
	r.InDoubtCommitted += o.InDoubtCommitted
	r.InDoubtAborted += o.InDoubtAborted
	r.InDoubtUnresolved += o.InDoubtUnresolved
}

// TwoPCSnapshot is the engine's cross-shard commit accounting.
type TwoPCSnapshot struct {
	Prepares        int64 // participant prepares made durable
	PreparedCommits int64 // prepared transactions committed
	PreparedAborts  int64 // prepared transactions rolled back
	Decisions       int64 // coordinator decision records logged
}

// add sums another shard's 2PC counters.
func (t *TwoPCSnapshot) add(o TwoPCSnapshot) {
	t.Prepares += o.Prepares
	t.PreparedCommits += o.PreparedCommits
	t.PreparedAborts += o.PreparedAborts
	t.Decisions += o.Decisions
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

// Partition returns the partition named name (the zero value if there
// is none).
func (s Snapshot) Partition(name string) PartitionSnapshot {
	for _, p := range s.Partitions {
		if p.Name == name {
			return p
		}
	}
	return PartitionSnapshot{}
}

// Rollup merges the snapshots of a node's shards into one node view.
// One rule per field kind:
//   - counters and footprints sum;
//   - ratios are recomputed from the summed parts (MeanGroupSize,
//     HashLoadFactor; IMRSHitRate is a method over the merged
//     partitions);
//   - gauges, quantiles and waits keep the largest shard value
//     (CommitTS, TSFTau, GroupSizeP95, CommitWaitMean/P95, recovery
//     Threads and Total);
//   - flags are true if any shard's is (AcceptNewRows, InsertEnabled,
//     recovery Ran);
//   - Health is the worst shard's (WorstHealth), and LastCheckpointError
//     the first one reported;
//   - partitions merge by name, indexes by table and name, recovery
//     phases by name (metrics.PhaseSet), IndexLevelLatchWaits by level.
//
// The rollup of one shard equals that shard's snapshot.
func Rollup(per []Snapshot) Snapshot {
	var n Snapshot
	var phases metrics.PhaseSet
	partAt := make(map[string]int)
	indexAt := make(map[[2]string]int)
	for _, s := range per {
		n.CommitTS = max(n.CommitTS, s.CommitTS)
		n.IMRSUsedBytes += s.IMRSUsedBytes
		n.IMRSCapacity += s.IMRSCapacity
		n.IMRSRows += s.IMRSRows
		n.RowsPacked += s.RowsPacked
		n.BytesPacked += s.BytesPacked
		n.RowsSkipped += s.RowsSkipped
		n.PackCycles += s.PackCycles
		n.TSFTau = max(n.TSFTau, s.TSFTau)
		n.TSFLearned += s.TSFLearned
		n.BufferHits += s.BufferHits
		n.BufferMisses += s.BufferMisses
		n.LatchWaits += s.LatchWaits
		n.GCVersions += s.GCVersions
		n.GCEntries += s.GCEntries
		n.GCPasses += s.GCPasses
		n.AcceptNewRows = n.AcceptNewRows || s.AcceptNewRows
		n.IMRSAllocs += s.IMRSAllocs
		n.IMRSFrees += s.IMRSFrees
		n.IMRSSlabGrabs += s.IMRSSlabGrabs
		n.RIDMapLive += s.RIDMapLive
		for lvl, w := range s.IndexLevelLatchWaits {
			if lvl == len(n.IndexLevelLatchWaits) {
				n.IndexLevelLatchWaits = append(n.IndexLevelLatchWaits, 0)
			}
			n.IndexLevelLatchWaits[lvl] += w
		}
		n.SysLog.add(s.SysLog)
		n.IMRSLog.add(s.IMRSLog)
		n.Recovery.add(s.Recovery)
		for _, p := range s.Recovery.Phases {
			phases.Observe(p.Name, p.Duration, p.Items, p.Workers)
		}
		n.TwoPC.add(s.TwoPC)
		n.Checkpoints += s.Checkpoints
		n.CheckpointFailures += s.CheckpointFailures
		if n.LastCheckpointError == "" {
			n.LastCheckpointError = s.LastCheckpointError
		}
		n.PackRelocErrors += s.PackRelocErrors
		n.ColdStore.add(s.ColdStore)
		for _, p := range s.Partitions {
			if i, ok := partAt[p.Name]; ok {
				n.Partitions[i].add(p)
			} else {
				partAt[p.Name] = len(n.Partitions)
				n.Partitions = append(n.Partitions, p)
			}
		}
		for _, ix := range s.Indexes {
			key := [2]string{ix.Table, ix.Name}
			if i, ok := indexAt[key]; ok {
				n.Indexes[i].add(ix)
			} else {
				indexAt[key] = len(n.Indexes)
				n.Indexes = append(n.Indexes, ix)
			}
		}
	}
	n.Recovery.Phases = phases.Snapshot()
	if len(per) > 0 {
		n.Health = per[WorstHealth(len(per), func(i int) HealthState { return per[i].Health.State })].Health
	}
	return n
}

// WorstHealth returns which of n shards is in the most severe health
// state, the lowest index among equals. A node reports that shard's
// health as its own.
func WorstHealth(n int, state func(i int) HealthState) int {
	worst := 0
	for i := 1; i < n; i++ {
		if state(i) > state(worst) {
			worst = i
		}
	}
	return worst
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
		Recovery:      e.recovery.snapshot(),
		Checkpoints:   e.ckptCompleted.Load(),
		TwoPC: TwoPCSnapshot{
			Prepares:        e.twopc.prepares.Load(),
			PreparedCommits: e.twopc.preparedCommits.Load(),
			PreparedAborts:  e.twopc.preparedAborts.Load(),
			Decisions:       e.twopc.decisions.Load(),
		},
	}
	s.PackRelocErrors = e.packer.RelocErrors.Load()
	s.ColdStore = ColdStoreSnapshot{Stats: e.cold.Stats(), Unfreezes: e.unfreezes.Load()}
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
		snap.Cold = e.cold.PartStats(ps.ID)
		s.Partitions = append(s.Partitions, snap)
	}
	s.RIDMapLive = int64(e.rmap.Len())
	s.IndexLevelLatchWaits = e.pool.Stats().IndexWaitsByLevel()
	for tname, rt := range e.reg.Load().tables {
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
	sort.Slice(s.Indexes, func(i, j int) bool {
		if s.Indexes[i].Table != s.Indexes[j].Table {
			return s.Indexes[i].Table < s.Indexes[j].Table
		}
		return s.Indexes[i].Name < s.Indexes[j].Name
	})
	return s
}
