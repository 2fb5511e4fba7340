package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/imrs"
	"repro/internal/index/btree"
	"repro/internal/metrics"
	"repro/internal/rid"
	"repro/internal/storage/colseg"
	"repro/internal/storage/page"
	"repro/internal/wal"
)

// Recovery phase names, in execution order. PhaseInDoubt is conditional:
// it runs (between analyze and redo) only when analysis found prepared
// transactions with no local outcome, so single-engine deployments see
// exactly the usual phase list.
const (
	PhaseTailRepair   = "tail-repair"
	PhaseAnalyze      = "analyze"
	PhaseInDoubt      = "indoubt-resolve"
	PhaseSyslogsRedo  = "syslogs-redo"
	PhaseColdRebuild  = "cold-rebuild"
	PhaseIMRSReplay   = "imrs-replay"
	PhaseIndexRebuild = "index-rebuild"
	PhaseQueueRebuild = "queue-rebuild"
)

// recoveryInfo is the observable record of the last recovery run. It is
// fully written before Open returns (the parallel phases use the atomic
// fields), and read-only afterwards; Stats copies it into the Snapshot.
type recoveryInfo struct {
	ran     bool // false on a fresh database (nothing to recover)
	threads int  // configured worker-pool bound
	total   time.Duration
	phases  metrics.PhaseSet

	syslogRecords    int64 // records scanned by analyze
	imrsRecords      int64 // committed IMRS ops applied by replay
	redoConflicts    int64 // slot conflicts reconciled (durable losers)
	rowsIndexed      atomic.Int64
	entriesEnqueued  int64
	entriesReclaimed atomic.Int64

	// In-doubt 2PC resolution (the conditional PhaseInDoubt).
	inDoubt           int64 // prepared txns with no local outcome
	inDoubtCommitted  int64 // resolved commit via the coordinator
	inDoubtAborted    int64 // resolved abort (explicit or presumed)
	inDoubtUnresolved int64 // coordinator unreachable → shard parked ReadOnly
}

// phase runs fn as the named recovery phase, recording its wall time,
// item count, and worker count.
func (ri *recoveryInfo) phase(name string, fn func() (items int64, workers int, err error)) error {
	t0 := time.Now()
	items, workers, err := fn()
	ri.phases.Observe(name, time.Since(t0), items, workers)
	return err
}

// recoveryWorkers bounds the worker count for a parallel phase with
// jobs independent jobs.
func (e *Engine) recoveryWorkers(jobs int) int {
	n := e.cfg.RecoveryThreads
	if n > jobs {
		n = jobs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// runParallel executes jobs [0, n) on up to threads workers and returns
// the first error. Jobs are handed out through an atomic cursor so
// uneven job sizes balance across workers; with one worker (or one job)
// it degenerates to a plain loop, which is also the serial baseline the
// equivalence tests compare against.
func runParallel(threads, n int, fn func(job int) error) error {
	if threads > n {
		threads = n
	}
	if threads <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var cursor atomic.Int64
	errs := make([]error, threads)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				j := int(cursor.Add(1)) - 1
				if j >= n {
					return
				}
				if err := fn(j); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// recover brings the engine to a consistent state at Open: it loads the
// last checkpoint's catalog from syslogs, redoes committed page-store
// work after the checkpoint, replays sysimrslogs fully into the IMRS
// (redo-only; the IMRS is never checkpointed), and rebuilds every index
// and pack queue from the recovered base data. The two logs recover in
// this lock-step order so a transaction spanning both stores is applied
// all-or-nothing (paper Section II).
//
// The pipeline runs as explicit phases (tail repair → analyze →
// syslogs redo → sysimrslogs replay → index rebuild → queue rebuild),
// each timed and counted in e.recovery. The two heavy phases — replay
// and index rebuild — fan out over a pool of Config.RecoveryThreads
// workers; the others are inherently sequential scans.
func (e *Engine) recover() error {
	ri := &e.recovery
	ri.threads = e.cfg.RecoveryThreads
	start := time.Now()
	defer func() { ri.total = time.Since(start) }()

	if err := ri.phase(PhaseTailRepair, func() (int64, int, error) {
		n, err := e.repairLogTails()
		return n, 1, err
	}); err != nil {
		return err
	}

	var an sysAnalysis
	if err := ri.phase(PhaseAnalyze, func() (int64, int, error) {
		var err error
		an, err = e.analyzeSyslogs()
		return ri.syslogRecords, 1, err
	}); err != nil {
		return err
	}
	if len(an.prepared) > 0 {
		// In-doubt 2PC transactions must resolve before redo decides who
		// wins — resolution edits the winner set. The phase is conditional
		// so deployments without cross-shard traffic keep the usual list.
		if err := ri.phase(PhaseInDoubt, func() (int64, int, error) {
			n, err := e.resolveInDoubt(&an)
			return n, 1, err
		}); err != nil {
			return err
		}
	}
	ckptLSN, ckptBlob, ckptGen := an.ckptLSN, an.ckptBlob, an.ckptGen
	sysWinners, segOps, maxTS := an.winners, an.segOps, an.maxTS
	if ckptBlob == nil {
		// Fresh database.
		e.cat = catalog.New()
		return nil
	}
	ri.ran = true
	if ckptGen != e.imrsGen {
		// The last checkpoint pinned a compacted sysimrslogs generation:
		// replay from that generation, not the original backend.
		if e.cfg.IMRSLogFactory == nil {
			return fmt.Errorf("core: checkpoint references sysimrslogs generation %d but no IMRSLogFactory is configured", ckptGen)
		}
		backend, err := e.cfg.IMRSLogFactory(ckptGen, false)
		if err != nil {
			return err
		}
		log, err := wal.NewLog(backend)
		if err != nil {
			return err
		}
		log.SetRetrier(e.walRetrier)
		log.SetPeers(&e.imrsPeers.Peers)
		if _, err := log.RepairTail(); err != nil {
			return fmt.Errorf("core: sysimrslogs generation %d: %w", ckptGen, err)
		}
		_ = e.imrslog.Close()
		e.imrslog = log
		e.imrsGen = ckptGen
	}
	cat, err := catalog.DecodeSnapshot(ckptBlob)
	if err != nil {
		return err
	}
	e.cat = cat
	for _, t := range cat.Tables() {
		if _, err := e.mountRecoveredTable(t); err != nil {
			return err
		}
	}

	if err := ri.phase(PhaseSyslogsRedo, func() (int64, int, error) {
		n, err := e.redoSyslogs(ckptLSN, sysWinners)
		return n, 1, err
	}); err != nil {
		return err
	}

	// Cold segments rebuild from the full-log analyze scan (segment blobs
	// live only in syslogs; checkpoints never write them out) and must be
	// in place before the IMRS replay: compacted sysimrslogs drop frozen
	// rows' inserts, so their virtual-sequence bumps come from here.
	if err := ri.phase(PhaseColdRebuild, func() (int64, int, error) {
		n, err := e.rebuildColdStore(segOps, sysWinners)
		return n, 1, err
	}); err != nil {
		return err
	}

	var imrsMax uint64
	if err := ri.phase(PhaseIMRSReplay, func() (int64, int, error) {
		var workers int
		var err error
		imrsMax, workers, err = e.replayIMRSLog(sysWinners)
		return ri.imrsRecords, workers, err
	}); err != nil {
		return err
	}
	if imrsMax > maxTS {
		maxTS = imrsMax
	}
	e.clock.AdvanceTo(maxTS)

	return e.rebuildDerivedState()
}

// repairLogTails truncates any torn final frame off both logs before
// recovery scans them and — critically — before the engine resumes
// appending. NewLog bases LSNs on the raw backend size, so without the
// truncation new records would land past the torn garbage, and every
// later scan would stop at the old tear and silently discard
// acknowledged commits and checkpoints appended after it. RepairTail
// fails (and so does recovery) when valid frames follow the tear:
// that is mid-log corruption, not a crash artifact. Returns the total
// bytes discarded.
func (e *Engine) repairLogTails() (int64, error) {
	nSys, err := e.syslog.RepairTail()
	if err != nil {
		return 0, fmt.Errorf("core: syslogs: %w", err)
	}
	nIMRS, err := e.imrslog.RepairTail()
	if err != nil {
		return nSys, fmt.Errorf("core: sysimrslogs: %w", err)
	}
	return nSys + nIMRS, nil
}

// mountRecoveredTable mounts a table with restored heaps and fresh
// (empty) index trees; the index-rebuild phase repopulates them.
func (e *Engine) mountRecoveredTable(t *catalog.Table) (*tableRT, error) {
	rt, err := e.mountTable(t, false)
	if err != nil {
		return nil, err
	}
	for _, ix := range rt.indexes {
		tree, err := btree.New(e.pool)
		if err != nil {
			return nil, err
		}
		ix.tree = tree
		ix.def.Root = tree.Root()
	}
	return rt, nil
}

// prepInfo is one in-doubt prepared transaction from analysis: its
// global id, coordinator shard, and reserved commit timestamp.
type prepInfo struct {
	gid   uint64
	coord uint32
	ts    uint64
}

// sysAnalysis is the result of the syslogs analysis scan.
type sysAnalysis struct {
	ckptLSN  uint64
	ckptBlob []byte
	ckptGen  uint64
	winners  map[uint64]uint64
	segOps   []wal.Record
	maxTS    uint64
	// prepared maps local txn id → prepare info for transactions whose
	// prepare has no matching local RecCommit/RecAbort — the in-doubt
	// set the conditional resolution phase settles.
	prepared map[uint64]prepInfo
}

// analyzeSyslogs scans the whole syslog: it finds the last checkpoint
// (LSN and catalog blob), the set of committed transactions, the set of
// in-doubt prepared transactions, and the maximum commit timestamp. It
// also raises the engine's transaction-id allocator past every id seen,
// so ids are unique across incarnations — otherwise a new transaction
// could reuse a pre-crash loser's id and a later recovery would
// resurrect the loser's log records along with it.
func (e *Engine) analyzeSyslogs() (sysAnalysis, error) {
	an := sysAnalysis{
		winners:  make(map[uint64]uint64),
		prepared: make(map[uint64]prepInfo),
	}
	rdr, err := e.syslog.NewReader(0)
	if err != nil {
		return an, err
	}
	for {
		rec, err := rdr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// repairLogTails truncated any torn tail before this scan, so a
			// torn frame here (wal.ErrTorn) means the log changed underneath
			// recovery — fail loudly rather than silently drop the suffix.
			return an, fmt.Errorf("core: syslogs analysis: %w", err)
		}
		e.recovery.syslogRecords++
		switch rec.Type {
		case wal.RecCheckpoint:
			an.ckptLSN = rec.LSN
			an.ckptBlob = rec.After
			an.ckptGen = rec.TxnID // checkpoint pins the sysimrslogs generation
			if rec.CommitTS > an.maxTS {
				an.maxTS = rec.CommitTS
			}
		case wal.RecCommit:
			e.bumpTxnID(rec.TxnID)
			an.winners[rec.TxnID] = rec.CommitTS
			delete(an.prepared, rec.TxnID) // prepared txn with a local outcome
			if rec.CommitTS > an.maxTS {
				an.maxTS = rec.CommitTS
			}
		case wal.RecAbort:
			e.bumpTxnID(rec.TxnID)
			delete(an.prepared, rec.TxnID) // prepared txn aborted locally
		case wal.RecPrepare:
			e.bumpTxnID(rec.TxnID)
			an.prepared[rec.TxnID] = prepInfo{gid: uint64(rec.RID), coord: rec.Table, ts: rec.CommitTS}
			if rec.CommitTS > an.maxTS {
				an.maxTS = rec.CommitTS
			}
		case wal.RecSegFreeze, wal.RecSegKill:
			// Cold-store ops are buffered (in LSN order) for the cold
			// rebuild phase; unlike heap redo they are not bounded by the
			// checkpoint — segments live only in the log.
			e.bumpTxnID(rec.TxnID)
			an.segOps = append(an.segOps, rec)
		case wal.RecDecide:
			// Decisions are not replay state (the coordinator resolves its
			// own prepares through winners), but they feed the in-memory
			// decision index peers probe at runtime — both this engine's
			// own decisions (Table = own shard id) and write-backs learned
			// from other coordinators. The TxnID (a gid, derived from a
			// local txn id somewhere) still advances the allocator.
			e.bumpTxnID(rec.TxnID)
			e.noteDecision(rec.Table, uint64(rec.RID), rec.Aux == 1)
		default:
			e.bumpTxnID(rec.TxnID)
		}
	}
	return an, nil
}

// resolveInDoubt settles every prepared transaction that analysis left
// in doubt, consulting Config.TwoPCResolver for the coordinator's
// durable decision. Commit verdicts promote the transaction into the
// winner set at its prepare-reserved timestamp; abort verdicts (the
// presumed-abort default) drop it. An Unknown verdict means the
// coordinator's log could not be read: the transaction is treated as
// aborted for replay — recovery must produce *some* consistent state —
// but the shard is parked ReadOnly so the possibly-wrong guess can
// never be compounded by new writes (DESIGN.md §12).
func (e *Engine) resolveInDoubt(an *sysAnalysis) (int64, error) {
	ri := &e.recovery
	ri.inDoubt = int64(len(an.prepared))
	ids := make([]uint64, 0, len(an.prepared))
	for id := range an.prepared {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		prep := an.prepared[id]
		outcome := TwoPCUnknown
		if e.cfg.TwoPCResolver != nil {
			outcome = e.cfg.TwoPCResolver(prep.gid, prep.coord)
		}
		switch outcome {
		case TwoPCCommit:
			an.winners[id] = prep.ts
			if prep.ts > an.maxTS {
				an.maxTS = prep.ts
			}
			ri.inDoubtCommitted++
			// Write the resolved outcome back into our own log (buffered;
			// flushed by the first post-recovery group commit) so the next
			// recovery resolves locally even if the coordinator is gone.
			// Losing it is harmless — resolution just runs again.
			cr := wal.Record{Type: wal.RecCommit, TxnID: id, CommitTS: prep.ts}
			_, _ = e.syslog.Append(&cr)
		case TwoPCAbort:
			ri.inDoubtAborted++
			ar := wal.Record{Type: wal.RecAbort, TxnID: id}
			_, _ = e.syslog.Append(&ar)
		default:
			ri.inDoubtUnresolved++
			e.inDoubtPending = append(e.inDoubtPending, InDoubtTxn{
				LocalID: id, GID: prep.gid, Coord: prep.coord, TS: prep.ts,
			})
			// Recoverable park, not the sticky poisoned-WAL verdict: the
			// node-level resolver re-probes peers and the decision journal
			// at runtime and exits the park in place (abort) or restarts
			// the shard with the decision discoverable (commit).
			e.health.parkReadOnly(fmt.Errorf(
				"core: in-doubt transaction %d (global %d): coordinator shard %d decision unavailable",
				id, prep.gid, prep.coord))
		}
	}
	return ri.inDoubt, nil
}

// rebuildColdStore replays the buffered cold-store ops of committed
// transactions, in log order: a freeze re-opens its segment blob and
// publishes it at the winner's commit timestamp; a kill re-marks the
// row's cold copy dead. Segment RIDs also raise the virtual-sequence
// allocators — a frozen row's IMRS insert may have been compacted out
// of sysimrslogs, leaving the segment as the only record of its RID.
func (e *Engine) rebuildColdStore(ops []wal.Record, winners map[uint64]uint64) (int64, error) {
	var applied int64
	for _, op := range ops {
		ts, committed := winners[op.TxnID]
		if !committed {
			continue
		}
		switch op.Type {
		case wal.RecSegFreeze:
			seg, err := colseg.Open(op.After)
			if err != nil {
				return applied, fmt.Errorf("core: cold rebuild: %w", err)
			}
			cp := e.cat.PartitionByID(seg.Part())
			if cp == nil {
				if e.cat.DroppedPartition(seg.Part()) {
					continue // segment of a dropped table
				}
				return applied, fmt.Errorf("core: cold rebuild references unknown partition %d", seg.Part())
			}
			for i := 0; i < seg.Rows(); i++ {
				if r := seg.RIDAt(i); r.IsVirtual() {
					cp.BumpVirtualSeq(r.Seq())
				}
			}
			seg.FreezeTS = ts
			e.cold.Publish(seg)
		case wal.RecSegKill:
			// The kind of kill only matters to snapshots older than ts,
			// and every snapshot after recovery is newer.
			e.cold.Kill(op.RID, ts, false)
		}
		applied++
	}
	return applied, nil
}

// bumpTxnID raises the transaction-id allocator to at least id.
func (e *Engine) bumpTxnID(id uint64) {
	for {
		cur := e.nextTxnID.Load()
		if cur >= id || e.nextTxnID.CompareAndSwap(cur, id) {
			return
		}
	}
}

// ensurePages extends the data device so page id pid exists (pages
// allocated after the last checkpoint may be missing after a crash).
func (e *Engine) ensurePages(pid uint32) error {
	for e.dataDev.NumPages() <= pid {
		if _, err := e.dataDev.AllocatePage(); err != nil {
			return err
		}
	}
	return nil
}

// redoSyslogs re-applies committed page-store operations after the
// checkpoint, returning how many it applied. With the no-steal buffer
// policy, on-disk pages hold exactly the committed state as of the
// checkpoint, so losers were never persisted and no undo pass is
// needed. This phase stays serial: heap pages are allocated in log
// order (ensurePages extends the device sequentially), so unlike the
// IMRS replay the records do not commute per partition.
//
// Slot-state conflicts are reconciled, not fatal. The winner set can
// contain durable losers: a transaction whose records (commit marker
// included) reached the backend but whose sync failed, so the live
// engine rolled it back in memory and kept running. Work committed
// after the rollback assumed its effects were undone, and the two
// histories can disagree about one physical slot — a delete of a slot
// an earlier durable loser already emptied, an update of it, or an
// insert onto a slot the loser's replayed effects left occupied.
// Applying records in log order with last-writer-wins per slot
// converges on a state consistent with what the surviving transactions
// observed: a delete of a dead slot is already satisfied, an update of
// a dead slot revives it with the newer image, an insert onto a live
// slot overwrites it. Only errors.Is-matched slot-state conflicts are
// forgiven — structural failures (unknown partition, out-of-range
// slot, oversized record) still abort recovery — and each one is
// counted in RecoverySnapshot.RedoConflicts so a recovery that had to
// reconcile histories is visible.
func (e *Engine) redoSyslogs(ckptLSN uint64, winners map[uint64]uint64) (int64, error) {
	rdr, err := e.syslog.NewReader(ckptLSN)
	if err != nil {
		return 0, err
	}
	var applied int64
	for {
		rec, err := rdr.Next()
		if err == io.EOF {
			return applied, nil
		}
		if err != nil {
			return applied, fmt.Errorf("core: syslogs redo: %w", err)
		}
		if rec.LSN <= ckptLSN {
			continue
		}
		switch rec.Type {
		case wal.RecHeapInsert, wal.RecHeapUpdate, wal.RecHeapDelete:
		default:
			continue // commit/abort/checkpoint markers carry no heap work
		}
		if _, committed := winners[rec.TxnID]; !committed {
			continue
		}
		prt := e.partByID(rec.RID.Partition())
		if prt == nil {
			if e.cat.DroppedPartition(rec.RID.Partition()) {
				continue // record of a dropped table
			}
			return applied, fmt.Errorf("core: redo references unknown partition %v", rec.RID)
		}
		switch rec.Type {
		case wal.RecHeapInsert:
			if err := e.ensurePages(uint32(rec.RID.Page())); err != nil {
				return applied, err
			}
			err := prt.heap.InsertAt(rec.RID, rec.After)
			if errors.Is(err, page.ErrSlotLive) {
				// A durable loser's replayed insert holds the slot the
				// live engine handed to this row; the later record is
				// the state surviving transactions saw.
				e.recovery.redoConflicts++
				err = prt.heap.Update(rec.RID, rec.After)
			}
			if err != nil {
				return applied, fmt.Errorf("core: redo insert %v: %w", rec.RID, err)
			}
		case wal.RecHeapUpdate:
			err := prt.heap.Update(rec.RID, rec.After)
			if errors.Is(err, page.ErrSlotDead) {
				// A durable loser's delete emptied the slot; the updater
				// ran against the rolled-back (live) row, so revive it
				// with the updater's image.
				e.recovery.redoConflicts++
				err = prt.heap.InsertAt(rec.RID, rec.After)
			}
			if err != nil {
				return applied, fmt.Errorf("core: redo update %v: %w", rec.RID, err)
			}
		case wal.RecHeapDelete:
			err := prt.heap.Delete(rec.RID)
			if errors.Is(err, page.ErrSlotDead) {
				// Double delete: a durable loser already emptied the
				// slot its rollback had restored live. The intent — row
				// gone — already holds.
				e.recovery.redoConflicts++
				err = nil
			}
			if err != nil {
				return applied, fmt.Errorf("core: redo delete %v: %w", rec.RID, err)
			}
		}
		applied++
	}
}

// imrsRedoOp is one committed IMRS operation awaiting application, with
// its transaction's commit timestamp. Replay holds every committed
// operation at once, so it keeps only the wal.Record fields it uses.
type imrsRedoOp struct {
	after     []byte
	rid       rid.RID
	txnID, ts uint64
	typ       wal.RecType
	aux       uint8
}

// replayIMRSLog redoes sysimrslogs from the beginning. A serial scan
// pass determines transaction outcomes exactly as commit order dictates:
// ops buffer per transaction and are scheduled at their IMRSCommit (a
// mixed transaction — Aux=1 — applies only if its syslogs Commit also
// survived). Committed ops are then demultiplexed by partition id and
// applied on the recovery worker pool. That parallelization is sound
// because records for different partitions commute — a RID lives in
// exactly one partition, so the per-entry apply order (insert before
// update before delete of the same RID) is preserved by applying each
// partition's ops in commit-log order on a single worker, and the
// structures shared across partitions (RID map, IMRS store accounting,
// catalog virtual-sequence bumps) are all concurrency-safe. The max
// commit timestamp is taken from the serial scan, before the fan-out.
func (e *Engine) replayIMRSLog(sysWinners map[uint64]uint64) (maxTS uint64, workers int, err error) {
	rdr, err := e.imrslog.NewReader(0)
	if err != nil {
		return 0, 1, err
	}
	pending := make(map[uint64][]wal.Record)
	perPart := make(map[rid.PartitionID][]imrsRedoOp)
	for {
		rec, err := rdr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 1, fmt.Errorf("core: sysimrslogs replay: %w", err)
		}
		e.bumpTxnID(rec.TxnID)
		switch rec.Type {
		case wal.RecIMRSInsert, wal.RecIMRSUpdate, wal.RecIMRSDelete:
			pending[rec.TxnID] = append(pending[rec.TxnID], rec)
		case wal.RecIMRSCommit:
			ops := pending[rec.TxnID]
			delete(pending, rec.TxnID)
			if rec.Aux == 1 {
				if _, ok := sysWinners[rec.TxnID]; !ok {
					continue // mixed transaction whose page half never committed
				}
			}
			if rec.CommitTS > maxTS {
				maxTS = rec.CommitTS
			}
			for _, op := range ops {
				part := op.RID.Partition()
				perPart[part] = append(perPart[part], imrsRedoOp{after: op.After, rid: op.RID,
					txnID: op.TxnID, ts: rec.CommitTS, typ: op.Type, aux: op.Aux})
				e.recovery.imrsRecords++
			}
		}
	}

	parts := make([]rid.PartitionID, 0, len(perPart))
	for p := range perPart {
		parts = append(parts, p)
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i] < parts[j] })
	workers = e.recoveryWorkers(len(parts))
	err = runParallel(workers, len(parts), func(i int) error {
		ops := perPart[parts[i]]
		for j := range ops {
			if err := e.applyIMRSRedo(&ops[j]); err != nil {
				return err
			}
			ops[j].after = nil // applied: the IMRS holds its own copy
		}
		return nil
	})
	return maxTS, workers, err
}

func (e *Engine) applyIMRSRedo(op *imrsRedoOp) error {
	part := op.rid.Partition()
	cp := e.cat.PartitionByID(part)
	if cp == nil {
		if e.cat.DroppedPartition(part) {
			return nil // record of a dropped table
		}
		return fmt.Errorf("core: IMRS redo references unknown partition %v", op.rid)
	}
	if op.rid.IsVirtual() {
		cp.BumpVirtualSeq(op.rid.Seq())
	}
	switch op.typ {
	case wal.RecIMRSInsert:
		en, err := e.store.CreateEntry(op.rid, part, imrs.Origin(op.aux), op.after, op.txnID)
		if err != nil {
			return fmt.Errorf("core: IMRS redo insert %v: %w", op.rid, err)
		}
		en.MarkDirty()
		e.store.Commit(en.Head(), op.ts)
		en.Touch(op.ts)
		e.rmap.Put(op.rid, en)
	case wal.RecIMRSUpdate:
		en := e.rmap.Get(op.rid)
		if en == nil {
			// Update of a cached (never-logged) row: upsert it.
			en2, err := e.store.CreateEntry(op.rid, part, imrs.Origin(op.aux), op.after, op.txnID)
			if err != nil {
				return fmt.Errorf("core: IMRS redo upsert %v: %w", op.rid, err)
			}
			en2.MarkDirty()
			e.store.Commit(en2.Head(), op.ts)
			en2.Touch(op.ts)
			e.rmap.Put(op.rid, en2)
			return nil
		}
		v, err := e.store.AddVersion(en, op.after, op.txnID)
		if err != nil {
			return fmt.Errorf("core: IMRS redo update %v: %w", op.rid, err)
		}
		e.store.Commit(v, op.ts)
		en.Touch(op.ts)
		// No snapshots exist during recovery: reclaim the old version now.
		if old := v.Older(); old != nil {
			v.TruncateOlder()
			e.store.FreeVersion(part, old)
		}
	case wal.RecIMRSDelete:
		en := e.rmap.Get(op.rid)
		if en != nil {
			en.MarkPacked()
			e.rmap.Delete(op.rid, en)
			e.store.RemoveEntry(en)
		}
	}
	return nil
}

// indexFeed accumulates the bulk-load input for one index tree across
// the parallel collect tasks.
type indexFeed struct {
	ix    *indexRT
	mu    sync.Mutex
	items []btree.Item
}

// collectChunk is the most recovered IMRS entries one collect task
// indexes, so that a table with one partition still spreads its rebuild
// over every recovery worker.
const collectChunk = 8192

// rebuildDerivedState runs the last two recovery phases. Index rebuild:
// parallel collect tasks, one per (partition, chunk of its live IMRS
// entries), decode each row once and emit (key, RID) pairs per index —
// a partition's first task also indexes its cold segments and heap;
// then each index sorts its pairs and bulk-loads its B+tree (index-
// parallel — a tree is fed by one worker, so no tree-level concurrency
// is needed). Queue rebuild: every live IMRS entry is re-enqueued on
// its pack queue in coldness order.
//
// Two recovered-entry defects are fixed here. Entries whose newest
// committed image is nil (a committed tombstone that was never swept)
// used to be skipped before the enqueue, leaking them permanently —
// invisible to lookups, absent from every pack queue, never reclaimed;
// they are now reclaimed once the collect is done (until then they
// shadow their RIDs' heap and segment copies). And entries used to be
// enqueued in rmap iteration (i.e. map-random) order, destroying the
// relaxed-LRU coldness order the packer depends on; they are now sorted
// by last access so the first post-restart pack cycle evicts
// actually-cold rows.
func (e *Engine) rebuildDerivedState() error {
	e.mu.RLock()
	tables := make([]*tableRT, 0, len(e.byID))
	for _, rt := range e.byID {
		tables = append(tables, rt)
	}
	e.mu.RUnlock()

	// Demux live recovered entries by partition for the collect tasks.
	entriesByPart := make(map[rid.PartitionID][]*imrs.Entry)
	var live, dead []*imrs.Entry
	var rErr error
	e.rmap.Range(func(r0 rid.RID, en *imrs.Entry) bool {
		if e.partByID(r0.Partition()) == nil {
			if e.cat.DroppedPartition(r0.Partition()) {
				return true // entry of a dropped table; leave it out of derived state
			}
			rErr = fmt.Errorf("core: recovered entry in unknown partition %v", r0)
			return false
		}
		if v := en.Visible(math.MaxUint64, 0); v == nil || v.Data() == nil {
			// Committed tombstone (or fully reclaimed image) that survived
			// in the log: nothing to index, and leaving it in the RID map
			// with no queue membership would leak it forever.
			dead = append(dead, en)
			return true
		}
		entriesByPart[r0.Partition()] = append(entriesByPart[r0.Partition()], en)
		live = append(live, en)
		return true
	})
	if rErr != nil {
		return rErr
	}

	var tasks []func() error // collect tasks
	var feeds []*indexFeed
	feedOf := make(map[*indexRT]*indexFeed)
	for _, rt := range tables {
		for _, prt := range rt.parts {
			ents := entriesByPart[prt.cat.ID]
			for i := 0; i == 0 || i < len(ents); i += collectChunk {
				chunk, first := ents[i:min(i+collectChunk, len(ents))], i == 0
				tasks = append(tasks, func() error { return e.collect(rt, prt, chunk, first, feedOf) })
			}
		}
		for _, ix := range rt.indexes {
			f := &indexFeed{ix: ix}
			feeds = append(feeds, f)
			feedOf[ix] = f
		}
	}

	collectWorkers := e.recoveryWorkers(len(tasks))
	buildWorkers := e.recoveryWorkers(len(feeds))
	workers := max(collectWorkers, buildWorkers)

	err := e.recovery.phase(PhaseIndexRebuild, func() (int64, int, error) {
		err := runParallel(collectWorkers, len(tasks), func(i int) error { return tasks[i]() })
		if err != nil {
			return e.recovery.rowsIndexed.Load(), workers, err
		}
		for _, en := range dead {
			en.MarkPacked()
			e.rmap.Delete(en.RID, en)
			e.store.RemoveEntry(en)
		}
		e.recovery.entriesReclaimed.Add(int64(len(dead)))
		err = runParallel(buildWorkers, len(feeds), func(i int) error {
			f := feeds[i]
			sort.Slice(f.items, func(a, b int) bool {
				return bytes.Compare(f.items[a].Key, f.items[b].Key) < 0
			})
			if err := f.ix.tree.BulkLoad(f.items); err != nil {
				return fmt.Errorf("core: index rebuild %s: %w", f.ix.def.Name, err)
			}
			f.ix.def.Root = f.ix.tree.Root()
			return nil
		})
		return e.recovery.rowsIndexed.Load(), workers, err
	})
	if err != nil {
		return err
	}

	return e.recovery.phase(PhaseQueueRebuild, func() (int64, int, error) {
		// Coldest first: the relaxed-LRU queues are consumed head-first by
		// the packer, so ascending last-access restores the pre-crash
		// coldness order. RID breaks ties deterministically (entries
		// committed at the same timestamp), which keeps the rebuilt order
		// independent of the RID map's iteration order.
		sort.Slice(live, func(i, j int) bool {
			ai, aj := live[i].LastAccess(), live[j].LastAccess()
			if ai != aj {
				return ai < aj
			}
			return live[i].RID < live[j].RID
		})
		for _, en := range live {
			e.queues.Enqueue(en)
		}
		e.recovery.entriesEnqueued = int64(len(live))
		return int64(len(live)), 1, nil
	})
}

// collect gathers one collect task's index keys: when first, the
// partition's segment and heap rows not shadowed by an IMRS entry; then
// the newest committed image of each of the given live IMRS entries.
// Runs on the recovery worker pool; tasks are disjoint (a RID maps to
// one partition, and each entry to one chunk of it), and the shared
// feeds are mutex-guarded.
func (e *Engine) collect(rt *tableRT, prt *partRT, entries []*imrs.Entry, first bool,
	feedOf map[*indexRT]*indexFeed) error {
	local := make([][]btree.Item, len(rt.indexes))
	var rows int64
	if first {
		// Segment pass: index every live, newest cold copy. Frozen rows keep
		// their RIDs, so (key, RID) pairs come straight off the segments.
		for _, seg := range e.cold.AppendSegments(nil, prt.cat.ID) {
			if seg.TableID() != rt.cat.ID {
				continue
			}
			for i := 0; i < seg.Rows(); i++ {
				r0 := seg.RIDAt(i)
				if seg.KillTS(i) != 0 || !seg.NewestAt(i, math.MaxUint64) {
					continue
				}
				if e.rmap.Get(r0) != nil {
					continue // a newer IMRS image indexes the RID
				}
				enc, err := seg.EncodeRowAt(i, nil)
				if err != nil {
					return err
				}
				if err := e.collectRowKeys(rt, r0, enc, nil, local); err != nil {
					return err
				}
				rows++
			}
		}

		var scanErr error
		err := prt.heap.Scan(func(r0 rid.RID, data []byte) bool {
			if e.rmap.Get(r0) != nil {
				return true // indexed from its IMRS image
			}
			if _, _, k, ok := e.cold.Lookup(r0); ok && k == 0 {
				return true // stale heap copy shadowed by a live segment row
			}
			if err := e.collectRowKeys(rt, r0, data, nil, local); err != nil {
				scanErr = err
				return false
			}
			rows++
			return true
		})
		if err == nil {
			err = scanErr
		}
		if err != nil {
			return err
		}
	}

	for _, en := range entries {
		if err := e.collectRowKeys(rt, en.RID, en.Visible(math.MaxUint64, 0).Data(), en, local); err != nil {
			return err
		}
		rows++
	}

	for i, ix := range rt.indexes {
		if len(local[i]) == 0 {
			continue
		}
		f := feedOf[ix]
		f.mu.Lock()
		f.items = append(f.items, local[i]...)
		f.mu.Unlock()
	}
	e.recovery.rowsIndexed.Add(rows)
	return nil
}

// collectRowKeys decodes one recovered row and appends its key for each
// of the table's indexes to local (parallel to rt.indexes). IMRS-backed
// rows (en != nil) also populate the hash fast path here — hash puts
// are concurrency-safe and order-independent, so they need no separate
// build step.
func (e *Engine) collectRowKeys(rt *tableRT, r0 rid.RID, data []byte, en *imrs.Entry, local [][]btree.Item) error {
	rw, err := e.decode(rt, data)
	if err != nil {
		return err
	}
	for i, ix := range rt.indexes {
		k, err := indexKey(ix, rw, r0)
		if err != nil {
			return err
		}
		local[i] = append(local[i], btree.Item{Key: k, RID: r0})
		if ix.hash != nil && en != nil {
			ix.hash.Put(k, en)
		}
	}
	return nil
}
