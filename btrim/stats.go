package btrim

import (
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// WALStats is one write-ahead log's activity, including how well the
// group-commit pipeline is coalescing committers.
type WALStats struct {
	// Appends / Flushes / Bytes count records appended, backend syncs,
	// and bytes logged.
	Appends int64
	Flushes int64
	Bytes   int64
	// GroupedCommits committers were served by GroupFlushes rounds, one
	// flush each; MeanGroupSize is their ratio.
	GroupFlushes   int64
	GroupedCommits int64
	MeanGroupSize  float64
	// CommitWaitMean / CommitWaitP95 are commit durability-wait times.
	CommitWaitMean time.Duration
	CommitWaitP95  time.Duration
}

// RecoveryPhase is one timed phase of the recovery pipeline.
type RecoveryPhase struct {
	Name     string
	Duration time.Duration
	Items    int64 // records/rows/bytes the phase processed
	Workers  int   // worker goroutines (1 = serial phase)
}

// RecoveryStats describes the recovery run performed by Open.
type RecoveryStats struct {
	// Ran is false when Open created a fresh database.
	Ran bool
	// Threads is the configured recovery worker bound.
	Threads int
	// Total is the recovery's wall time. With several shards it is the
	// wall time of the node's open, over which the shards recover
	// concurrently. Phases breaks it down, merged by name across the
	// shards: their durations add, so with several shards they can sum
	// to more than Total.
	Total  time.Duration
	Phases []RecoveryPhase

	SyslogRecords    int64 // page-store log records scanned
	IMRSRecords      int64 // committed IMRS operations replayed
	RedoConflicts    int64 // slot conflicts reconciled by conditional redo
	RowsIndexed      int64 // rows fed to the index rebuild
	EntriesEnqueued  int64 // IMRS entries re-enqueued on pack queues
	EntriesReclaimed int64 // dead recovered entries reclaimed

	// InDoubt counts prepared-but-undecided cross-shard transactions
	// found in the log; resolution splits them into committed and
	// aborted, and any left unresolved park the engine ReadOnly
	// (DESIGN.md §12).
	InDoubt           int64
	InDoubtCommitted  int64
	InDoubtAborted    int64
	InDoubtUnresolved int64
}

// Stats is a point-in-time view of the engine's hybrid-storage state.
type Stats struct {
	// IMRSUsedBytes / IMRSCapacityBytes give cache utilization.
	IMRSUsedBytes     int64
	IMRSCapacityBytes int64
	// IMRSRows is the number of in-memory resident rows.
	IMRSRows int64
	// IMRSHitRate is the fraction of row operations served in memory
	// (the paper's "% operations in the IMRS").
	IMRSHitRate float64
	// RowsPacked / BytesPacked / RowsSkipped summarize Pack activity.
	RowsPacked  int64
	BytesPacked int64
	RowsSkipped int64
	// RIDMapRows is the RID map's live entry count (packed entries
	// awaiting GC excluded).
	RIDMapRows int64
	// IndexLatchWaits / IndexRestarts total contested B+tree frame
	// latches and traversal restarts across all indexes.
	IndexLatchWaits int64
	IndexRestarts   int64
	// SysLog / IMRSLog report per-log commit-pipeline activity.
	SysLog  WALStats
	IMRSLog WALStats
	// Recovery describes the recovery run Open performed.
	Recovery RecoveryStats
	// Checkpoints / CheckpointFailures count checkpoint outcomes;
	// LastCheckpointError is the most recent unsurfaced failure.
	Checkpoints         int64
	CheckpointFailures  int64
	LastCheckpointError string
	// PackRelocErrors counts failed pack-relocation transactions (the
	// rows stay queued; persistent streaks degrade Health).
	PackRelocErrors int64
	// ColdStore summarizes the compressed columnar cold store.
	ColdStore ColdStoreStats
	// Health is the health state machine's snapshot of the shard in the
	// worst state.
	Health Health
	// Tables maps table/partition name to its per-partition stats.
	Tables map[string]TableStats
	// Indexes maps "table.index" to per-index stats.
	Indexes map[string]IndexStats

	// Prepares / PreparedCommits / PreparedAborts / Decisions count this
	// engine's participation in two-phase (cross-shard) commits: local
	// prepares and their outcomes, plus coordinator decision records it
	// logged.
	Prepares        int64
	PreparedCommits int64
	PreparedAborts  int64
	Decisions       int64

	// Node rollups, set only on DB.Stats snapshots (not on the per-shard
	// entries of Shards): Shards holds each shard's full stats, and the
	// commit counters classify node-level transactions by how many
	// shards they wrote.
	Shards                 []ShardStats
	SingleShardCommits     int64
	CrossShardCommits      int64
	CrossShardAborts       int64
	CrossShardCommitErrors int64
	// Failure-recovery rollups: in-doubt
	// transactions the background resolver settled, recoverable
	// ReadOnly parks exited in place, shard restarts (operator- or
	// resolver-driven), and fan-out reads that returned partial results.
	InDoubtResolved int64
	ReadOnlyExits   int64
	ShardRestarts   int64
	PartialResults  int64
}

// ShardStats is one shard's full engine stats within a node.
type ShardStats struct {
	Shard int
	Stats
}

// ColdStoreStats summarizes the compressed columnar cold store: how
// many rows live in segments, how well they compressed, and how often
// updates pulled frozen rows back out (un-freeze).
type ColdStoreStats struct {
	Segments        int64 // segments currently published
	SegmentsWritten int64 // segments ever published
	RowsFrozen      int64 // rows ever frozen into segments
	RowsLive        int64 // segment rows still live
	Kills           int64 // segment-row invalidations
	Unfreezes       int64 // updates that pulled a frozen row back out
	RawBytes        int64 // pre-compression footprint
	CompressedBytes int64 // on-blob footprint
}

// CompressionRatio returns compressed/raw across all published
// segments (0 when nothing is frozen).
func (c ColdStoreStats) CompressionRatio() float64 {
	if c.RawBytes == 0 {
		return 0
	}
	return float64(c.CompressedBytes) / float64(c.RawBytes)
}

// TableStats is one partition's observable ILM state.
type TableStats struct {
	IMRSRows    int64
	IMRSBytes   int64
	IMRSOps     int64 // operations served in memory
	PageOps     int64 // operations served from the page store
	ReuseOps    int64 // IMRS selects+updates+deletes
	PackedRows  int64
	IMRSEnabled bool

	// Cold-store residency for this partition.
	ColdSegments        int64
	ColdRows            int64
	ColdLiveRows        int64
	ColdRawBytes        int64
	ColdCompressedBytes int64
}

// ColdCompressionRatio returns compressed/raw for this partition's
// segments (0 when nothing is frozen).
func (t TableStats) ColdCompressionRatio() float64 {
	if t.ColdRawBytes == 0 {
		return 0
	}
	return float64(t.ColdCompressedBytes) / float64(t.ColdRawBytes)
}

// IndexStats is one index's observable state: B+tree latch traffic and
// the IMRS hash fast path's occupancy. The hash table grows with its
// entries, so HashLoadFactor (entries per bucket) stays ≤ 1.
type IndexStats struct {
	Unique bool

	LatchWaits int64 // contested B+tree frame latches
	Restarts   int64 // optimistic-insert fallbacks + root-split retries

	HashEntries    int
	HashBuckets    int
	HashLoadFactor float64
	HashHits       int64
	HashMisses     int64
}

func walStats(l core.LogSnapshot) WALStats {
	return WALStats{
		Appends:        l.Appends,
		Flushes:        l.Flushes,
		Bytes:          l.Bytes,
		GroupFlushes:   l.GroupFlushes,
		GroupedCommits: l.GroupedCommits,
		MeanGroupSize:  l.MeanGroupSize,
		CommitWaitMean: l.CommitWaitMean,
		CommitWaitP95:  l.CommitWaitP95,
	}
}

// Stats aggregates every shard's snapshot into one node view (Shards
// keeps the per-shard detail) and adds the node commit counters.
func (db *DB) Stats() Stats {
	per := make([]Stats, db.node.NumShards())
	for i := range per {
		per[i] = statsFromSnapshot(db.node.Engine(i).Stats())
	}
	s := aggregateShardStats(per)
	if len(per) > 1 {
		s.Recovery.Total = db.node.OpenTime()
	}
	c := db.node.Counters()
	s.SingleShardCommits = c.SingleShardCommits
	s.CrossShardCommits = c.CrossShardCommits
	s.CrossShardAborts = c.CrossShardAborts
	s.CrossShardCommitErrors = c.CrossShardCommitErrs
	s.InDoubtResolved = c.InDoubtResolved
	s.ReadOnlyExits = c.ReadOnlyExits
	s.ShardRestarts = c.ShardRestarts
	s.PartialResults = c.PartialResults
	return s
}

// statsFromSnapshot maps one engine's snapshot onto the public stats.
func statsFromSnapshot(snap core.Snapshot) Stats {
	s := Stats{
		IMRSUsedBytes:     snap.IMRSUsedBytes,
		IMRSCapacityBytes: snap.IMRSCapacity,
		IMRSRows:          snap.IMRSRows,
		IMRSHitRate:       snap.IMRSHitRate(),
		RowsPacked:        snap.RowsPacked,
		BytesPacked:       snap.BytesPacked,
		RowsSkipped:       snap.RowsSkipped,
		RIDMapRows:        snap.RIDMapLive,
		SysLog:            walStats(snap.SysLog),
		IMRSLog:           walStats(snap.IMRSLog),
		Recovery: RecoveryStats{
			Ran:               snap.Recovery.Ran,
			Threads:           snap.Recovery.Threads,
			Total:             snap.Recovery.Total,
			SyslogRecords:     snap.Recovery.SyslogRecords,
			IMRSRecords:       snap.Recovery.IMRSRecords,
			RedoConflicts:     snap.Recovery.RedoConflicts,
			RowsIndexed:       snap.Recovery.RowsIndexed,
			EntriesEnqueued:   snap.Recovery.EntriesEnqueued,
			EntriesReclaimed:  snap.Recovery.EntriesReclaimed,
			InDoubt:           snap.Recovery.InDoubt,
			InDoubtCommitted:  snap.Recovery.InDoubtCommitted,
			InDoubtAborted:    snap.Recovery.InDoubtAborted,
			InDoubtUnresolved: snap.Recovery.InDoubtUnresolved,
		},
		Prepares:            snap.TwoPC.Prepares,
		PreparedCommits:     snap.TwoPC.PreparedCommits,
		PreparedAborts:      snap.TwoPC.PreparedAborts,
		Decisions:           snap.TwoPC.Decisions,
		Checkpoints:         snap.Checkpoints,
		CheckpointFailures:  snap.CheckpointFailures,
		LastCheckpointError: snap.LastCheckpointError,
		PackRelocErrors:     snap.PackRelocErrors,
		ColdStore: ColdStoreStats{
			Segments:        snap.ColdStore.Segments,
			SegmentsWritten: snap.ColdStore.SegmentsWritten,
			RowsFrozen:      snap.ColdStore.RowsFrozen,
			RowsLive:        snap.ColdStore.RowsLive,
			Kills:           snap.ColdStore.Kills,
			Unfreezes:       snap.ColdStore.Unfreezes,
			RawBytes:        snap.ColdStore.RawBytes,
			CompressedBytes: snap.ColdStore.CompressedBytes,
		},
		Health:  healthFromCore(snap.Health),
		Tables:  make(map[string]TableStats, len(snap.Partitions)),
		Indexes: make(map[string]IndexStats, len(snap.Indexes)),
	}
	for _, p := range snap.Recovery.Phases {
		s.Recovery.Phases = append(s.Recovery.Phases, RecoveryPhase{
			Name: p.Name, Duration: p.Duration, Items: p.Items, Workers: p.Workers,
		})
	}
	for _, ix := range snap.Indexes {
		s.Indexes[ix.Table+"."+ix.Name] = IndexStats{
			Unique:         ix.Unique,
			LatchWaits:     ix.LatchWaits,
			Restarts:       ix.Restarts,
			HashEntries:    ix.HashEntries,
			HashBuckets:    ix.HashBuckets,
			HashLoadFactor: ix.HashLoadFactor,
			HashHits:       ix.HashHits,
			HashMisses:     ix.HashMisses,
		}
		s.IndexLatchWaits += ix.LatchWaits
		s.IndexRestarts += ix.Restarts
	}
	for _, p := range snap.Partitions {
		s.Tables[p.Name] = TableStats{
			IMRSRows:    p.IMRSRows,
			IMRSBytes:   p.IMRSBytes,
			IMRSOps:     p.IMRSOps(),
			PageOps:     p.PageOps,
			ReuseOps:    p.ReuseOps(),
			PackedRows:  p.PackedRows,
			IMRSEnabled: p.InsertEnabled,

			ColdSegments:        p.ColdSegments,
			ColdRows:            p.ColdRows,
			ColdLiveRows:        p.ColdLiveRows,
			ColdRawBytes:        p.ColdRawBytes,
			ColdCompressedBytes: p.ColdCompressedBytes,
		}
	}
	return s
}

// mergeWALStats sums one shard's log activity into dst. Counters add;
// the mean group size is recomputed from the sums; wait times keep the
// worst shard (a node commits only as fast as its slowest log).
func mergeWALStats(dst *WALStats, src WALStats) {
	dst.Appends += src.Appends
	dst.Flushes += src.Flushes
	dst.Bytes += src.Bytes
	dst.GroupFlushes += src.GroupFlushes
	dst.GroupedCommits += src.GroupedCommits
	if dst.GroupFlushes > 0 {
		dst.MeanGroupSize = float64(dst.GroupedCommits) / float64(dst.GroupFlushes)
	}
	if src.CommitWaitMean > dst.CommitWaitMean {
		dst.CommitWaitMean = src.CommitWaitMean
	}
	if src.CommitWaitP95 > dst.CommitWaitP95 {
		dst.CommitWaitP95 = src.CommitWaitP95
	}
}

// aggregateShardStats rolls per-shard snapshots up into one node view:
// counters and footprints sum, table/index maps and recovery phases
// merge by name, the hit rate is recomputed from the merged operation
// counts, and Health reports the worst shard. The rollup of one shard
// equals that shard's stats. The shards recover concurrently, so the
// rollup's recovery Total is the slowest shard's; with several shards
// DB.Stats replaces it with the wall time of the node's open.
func aggregateShardStats(per []Stats) Stats {
	agg := Stats{
		Tables:  make(map[string]TableStats),
		Indexes: make(map[string]IndexStats),
		Shards:  make([]ShardStats, len(per)),
	}
	var imrsOps, pageOps int64
	var phases metrics.PhaseSet // merges the shards' phases by name
	for i, s := range per {
		agg.Shards[i] = ShardStats{Shard: i, Stats: s}

		agg.IMRSUsedBytes += s.IMRSUsedBytes
		agg.IMRSCapacityBytes += s.IMRSCapacityBytes
		agg.IMRSRows += s.IMRSRows
		agg.RowsPacked += s.RowsPacked
		agg.BytesPacked += s.BytesPacked
		agg.RowsSkipped += s.RowsSkipped
		agg.RIDMapRows += s.RIDMapRows
		agg.IndexLatchWaits += s.IndexLatchWaits
		agg.IndexRestarts += s.IndexRestarts
		mergeWALStats(&agg.SysLog, s.SysLog)
		mergeWALStats(&agg.IMRSLog, s.IMRSLog)
		agg.Checkpoints += s.Checkpoints
		agg.CheckpointFailures += s.CheckpointFailures
		if agg.LastCheckpointError == "" {
			agg.LastCheckpointError = s.LastCheckpointError
		}
		agg.PackRelocErrors += s.PackRelocErrors

		agg.ColdStore.Segments += s.ColdStore.Segments
		agg.ColdStore.SegmentsWritten += s.ColdStore.SegmentsWritten
		agg.ColdStore.RowsFrozen += s.ColdStore.RowsFrozen
		agg.ColdStore.RowsLive += s.ColdStore.RowsLive
		agg.ColdStore.Kills += s.ColdStore.Kills
		agg.ColdStore.Unfreezes += s.ColdStore.Unfreezes
		agg.ColdStore.RawBytes += s.ColdStore.RawBytes
		agg.ColdStore.CompressedBytes += s.ColdStore.CompressedBytes

		agg.Recovery.Ran = agg.Recovery.Ran || s.Recovery.Ran
		agg.Recovery.Threads = s.Recovery.Threads
		agg.Recovery.Total = max(agg.Recovery.Total, s.Recovery.Total)
		for _, p := range s.Recovery.Phases {
			phases.Observe(p.Name, p.Duration, p.Items, p.Workers)
		}
		agg.Recovery.SyslogRecords += s.Recovery.SyslogRecords
		agg.Recovery.IMRSRecords += s.Recovery.IMRSRecords
		agg.Recovery.RedoConflicts += s.Recovery.RedoConflicts
		agg.Recovery.RowsIndexed += s.Recovery.RowsIndexed
		agg.Recovery.EntriesEnqueued += s.Recovery.EntriesEnqueued
		agg.Recovery.EntriesReclaimed += s.Recovery.EntriesReclaimed
		agg.Recovery.InDoubt += s.Recovery.InDoubt
		agg.Recovery.InDoubtCommitted += s.Recovery.InDoubtCommitted
		agg.Recovery.InDoubtAborted += s.Recovery.InDoubtAborted
		agg.Recovery.InDoubtUnresolved += s.Recovery.InDoubtUnresolved

		agg.Prepares += s.Prepares
		agg.PreparedCommits += s.PreparedCommits
		agg.PreparedAborts += s.PreparedAborts
		agg.Decisions += s.Decisions

		if i == 0 || s.Health.State > agg.Health.State {
			agg.Health = s.Health
		}

		for name, t := range s.Tables {
			m, seen := agg.Tables[name]
			m.IMRSRows += t.IMRSRows
			m.IMRSBytes += t.IMRSBytes
			m.IMRSOps += t.IMRSOps
			m.PageOps += t.PageOps
			m.ReuseOps += t.ReuseOps
			m.PackedRows += t.PackedRows
			m.IMRSEnabled = t.IMRSEnabled || (seen && m.IMRSEnabled)
			m.ColdSegments += t.ColdSegments
			m.ColdRows += t.ColdRows
			m.ColdLiveRows += t.ColdLiveRows
			m.ColdRawBytes += t.ColdRawBytes
			m.ColdCompressedBytes += t.ColdCompressedBytes
			agg.Tables[name] = m
			imrsOps += t.IMRSOps
			pageOps += t.PageOps
		}
		for name, ix := range s.Indexes {
			m := agg.Indexes[name]
			m.Unique = ix.Unique
			m.LatchWaits += ix.LatchWaits
			m.Restarts += ix.Restarts
			m.HashEntries += ix.HashEntries
			m.HashBuckets += ix.HashBuckets
			if m.HashBuckets > 0 {
				m.HashLoadFactor = float64(m.HashEntries) / float64(m.HashBuckets)
			}
			m.HashHits += ix.HashHits
			m.HashMisses += ix.HashMisses
			agg.Indexes[name] = m
		}
	}
	if total := imrsOps + pageOps; total > 0 {
		agg.IMRSHitRate = float64(imrsOps) / float64(total)
	}
	for _, p := range phases.Snapshot() {
		agg.Recovery.Phases = append(agg.Recovery.Phases, RecoveryPhase(p))
	}
	return agg
}
