package core

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/imrs"
	"repro/internal/index/btree"
	"repro/internal/metrics"
	"repro/internal/rid"
	"repro/internal/ridmap"
	"repro/internal/row"
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

// recoveryRecord is where recovery writes as it runs: the reported
// snapshot in place, and the phases through a PhaseSet that folds a
// phase observed twice into one entry. It is fully written before Open
// returns (recovery's parallel workers hand their counts to the phase
// runner) and read-only afterwards.
type recoveryRecord struct {
	RecoverySnapshot
	phases metrics.PhaseSet
}

// snapshot returns the recorded run with its phases.
func (ri *recoveryRecord) snapshot() RecoverySnapshot {
	s := ri.RecoverySnapshot
	s.Phases = ri.phases.Snapshot()
	return s
}

// phase runs fn as the named recovery phase, recording its wall time,
// item count, and worker count.
func (ri *recoveryRecord) phase(name string, fn func() (items int64, workers int, err error)) error {
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
// the first error; fn learns which worker (in [0, threads)) runs the
// job. Jobs are handed out through an atomic cursor so uneven job sizes
// balance across workers; with one worker (or one job) it degenerates
// to a plain loop, which is also the serial baseline the equivalence
// tests compare against.
func runParallel(threads, n int, fn func(worker, job int) error) error {
	if threads > n {
		threads = n
	}
	if threads <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
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
				if err := fn(w, j); err != nil {
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
	ri.Threads = e.cfg.RecoveryThreads
	start := time.Now()
	defer func() { ri.Total = time.Since(start) }()

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
		return ri.SyslogRecords, 1, err
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
	ri.Ran = true
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
		return ri.IMRSRecords, workers, err
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
		e.recovery.SyslogRecords++
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
	ri.InDoubt = int64(len(an.prepared))
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
			ri.InDoubtCommitted++
			// Write the resolved outcome back into our own log (buffered;
			// flushed by the first post-recovery group commit) so the next
			// recovery resolves locally even if the coordinator is gone.
			// Losing it is harmless — resolution just runs again.
			cr := wal.Record{Type: wal.RecCommit, TxnID: id, CommitTS: prep.ts}
			_, _ = e.syslog.Append(&cr)
		case TwoPCAbort:
			ri.InDoubtAborted++
			ar := wal.Record{Type: wal.RecAbort, TxnID: id}
			_, _ = e.syslog.Append(&ar)
		default:
			ri.InDoubtUnresolved++
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
	return ri.InDoubt, nil
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
				e.recovery.RedoConflicts++
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
				e.recovery.RedoConflicts++
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
				e.recovery.RedoConflicts++
				err = nil
			}
			if err != nil {
				return applied, fmt.Errorf("core: redo delete %v: %w", rec.RID, err)
			}
		}
		applied++
	}
}

// imrsRedoOp is one IMRS operation awaiting its transaction's commit
// (which sets ts) and then its application. It keeps only the
// wal.Record fields the apply uses.
type imrsRedoOp struct {
	after     []byte
	rid       rid.RID
	txnID, ts uint64
	typ       wal.RecType
	aux       uint8
}

// replayBatch is how many committed operations the replay scan hands a
// lane at once.
const replayBatch = 1024

// replayIMRSLog redoes sysimrslogs from the beginning. A serial scan
// determines transaction outcomes exactly as commit order dictates: ops
// buffer per transaction and are scheduled at their IMRSCommit (a mixed
// transaction — Aux=1 — applies only if its syslogs Commit also
// survived). Committed ops are split into one lane per recovery worker
// by RID hash and handed over in batches while the scan goes on, so scan
// and apply overlap and only the batches in flight are held. That is
// sound because the apply only needs each RID's ops in log order, which
// a lane keeps; the structures lanes share (RID map, IMRS store
// accounting, catalog virtual-sequence bumps) are all safe for
// concurrent use. The max commit timestamp is taken by the scan.
func (e *Engine) replayIMRSLog(sysWinners map[uint64]uint64) (maxTS uint64, workers int, err error) {
	rdr, err := e.imrslog.NewReader(0)
	if err != nil {
		return 0, 1, err
	}
	workers = max(e.cfg.RecoveryThreads, 1)
	errs := make([]error, workers)
	splices := make([]splice, workers)
	var failed atomic.Bool
	apply := func(lane int, ops []imrsRedoOp) {
		for j := 0; j < len(ops) && errs[lane] == nil; j++ {
			if errs[lane] = e.applyIMRSRedo(&ops[j], &splices[lane]); errs[lane] != nil {
				failed.Store(true)
			}
		}
	}
	// hand gives lane w its full batch: with one worker the scan applies
	// it in place, otherwise the lane's goroutine does.
	batches := make([][]imrsRedoOp, workers)
	hand := func(w int) { apply(w, batches[w]); batches[w] = batches[w][:0] }
	lanes := make([]chan []imrsRedoOp, workers)
	var wg sync.WaitGroup
	if workers > 1 {
		for w := range lanes {
			// Two queued batches keep a lane busy while the scan fills
			// its next one; the bound is what caps the replay's heap.
			lanes[w] = make(chan []imrsRedoOp, 2)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ops := range lanes[w] {
					apply(w, ops)
				}
			}()
		}
		hand = func(w int) { lanes[w] <- batches[w]; batches[w] = make([]imrsRedoOp, 0, replayBatch) }
	}
	defer func() {
		for _, ch := range lanes {
			if ch != nil {
				close(ch)
			}
		}
		wg.Wait()
		for _, laneErr := range errs {
			err = cmp.Or(err, laneErr)
		}
	}()

	pending := make(map[uint64][]imrsRedoOp)
	for !failed.Load() {
		rec, err := rdr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return maxTS, workers, fmt.Errorf("core: sysimrslogs replay: %w", err)
		}
		e.bumpTxnID(rec.TxnID)
		switch rec.Type {
		case wal.RecIMRSInsert, wal.RecIMRSUpdate, wal.RecIMRSDelta, wal.RecIMRSDelete:
			pending[rec.TxnID] = append(pending[rec.TxnID], imrsRedoOp{after: rec.After, rid: rec.RID,
				txnID: rec.TxnID, typ: rec.Type, aux: rec.Aux})
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
				op.ts = rec.CommitTS
				w := laneOf(op.rid, workers)
				batches[w] = append(batches[w], op)
				if len(batches[w]) == replayBatch {
					hand(w)
				}
			}
			e.recovery.IMRSRecords += int64(len(ops))
		}
	}
	for w := range batches {
		if len(batches[w]) > 0 {
			hand(w)
		}
	}
	return maxTS, workers, nil
}

// laneOf maps a RID to one of n replay lanes.
func laneOf(r rid.RID, n int) int {
	h := uint64(r) * 0x9e3779b97f4a7c15
	return int((h >> 32) % uint64(n))
}

// splice is a replay lane's buffers for applying deltas: the base
// image and the new image spliced from it.
type splice struct {
	img row.Image
	buf []byte
}

func (e *Engine) applyIMRSRedo(op *imrsRedoOp, sp *splice) error {
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
	var en *imrs.Entry
	switch op.typ {
	case wal.RecIMRSInsert:
	case wal.RecIMRSUpdate, wal.RecIMRSDelta:
		en = e.rmap.Get(op.rid)
		if en == nil && op.typ == wal.RecIMRSDelta {
			return fmt.Errorf("%w: %v", ErrDeltaWithoutBase, op.rid)
		}
		// A full image with no entry is the first update of a cached
		// (never-logged) row: upsert it.
	case wal.RecIMRSDelete:
		if en := e.rmap.Get(op.rid); en != nil {
			en.MarkPacked()
			e.rmap.Delete(op.rid, en)
			e.store.RemoveEntry(en)
		}
		return nil
	}
	if en == nil {
		en, err := e.store.CreateEntry(op.rid, part, imrs.Origin(op.aux), op.after, op.txnID)
		if err != nil {
			return fmt.Errorf("core: IMRS redo %v %v: %w", op.typ, op.rid, err)
		}
		en.MarkDirty()
		en.MarkLogged()
		e.store.Commit(en.Head(), op.ts)
		en.Touch(op.ts)
		e.rmap.Put(op.rid, en)
		return nil
	}
	data := op.after
	if op.typ == wal.RecIMRSDelta {
		sp.img.Set(cp.Table.Schema, en.Head().Data())
		var err error
		if sp.buf, err = sp.img.Splice(sp.buf[:0], op.after); err != nil {
			return fmt.Errorf("core: IMRS redo delta %v: %w", op.rid, err)
		}
		data = sp.buf
	}
	v, err := e.store.AddVersion(en, data, op.txnID)
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
	return nil
}

// keyRef is one (key, RID) pair of an index run; the key lies at
// [off, end) of its collector's key arena. Runs hold no pointers, so
// sorting them costs the garbage collector nothing.
type keyRef struct {
	off, end int
	rid      rid.RID
}

// stamp is a live recovered entry's queue-sort input: its access stamp,
// read once, its RID, and where it is (live[i] of collector w).
type stamp struct {
	at   uint64
	rid  rid.RID
	w, i int32
}

// coldestFirst orders recovered entries by (last access, RID): the
// relaxed-LRU queues are consumed head-first by the packer, so ascending
// last access restores the pre-crash coldness order, and the RID breaks
// ties (entries committed at one timestamp) independently of the RID
// map's iteration order.
func coldestFirst(a, b stamp) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.rid, b.rid)
}

func byKey(a, b btree.Item) int { return bytes.Compare(a.Key, b.Key) }

// collector is one index-rebuild worker: it decodes each row once and
// appends a (key, RID) pair to its run for each of the row's indexes.
// IMRS-backed rows also populate the hash fast path (puts are safe for
// concurrent use and order-independent).
type collector struct {
	e      *Engine
	w      int32
	feedOf map[*tableRT]int // the feed number of the table's first index
	keys   []byte           // key arena
	runs   [][]keyRef       // by feed number
	rw     row.Row          // reused by decode
	rows   int64
	live   []*imrs.Entry
	stamps []stamp // one per live entry
	dead   []*imrs.Entry
}

// rebuildDerivedState runs the last two recovery phases. Index rebuild:
// each hash fast path is sized to its table's recovered entry count;
// collect tasks — one per partition for its cold segments and heap, one
// per RID-map chunk for the IMRS entries — run on the recovery workers;
// each B+tree is bulk-loaded from a merge of the workers' sorted runs
// (index-parallel: a tree is fed by one worker). Dead entries (a
// committed tombstone never swept) are reclaimed once the collect is
// done — until then they shadow their RIDs' heap and segment copies —
// so they do not stay resident outside every pack queue. Queue rebuild:
// every live IMRS entry is enqueued in coldness order, from a merge of
// the workers' sorted lists.
func (e *Engine) rebuildDerivedState() error {
	byID := e.reg.Load().byID
	tables := make([]*tableRT, 0, len(byID))
	for _, rt := range byID {
		tables = append(tables, rt)
	}

	var feeds []*indexRT
	feedOf := make(map[*tableRT]int)
	owner := make(map[rid.PartitionID]*tableRT)
	var tasks []func(*collector) error
	for _, rt := range tables {
		feedOf[rt] = len(feeds)
		feeds = append(feeds, rt.indexes...)
		for _, prt := range rt.parts {
			owner[prt.cat.ID] = rt
			tasks = append(tasks, func(c *collector) error { return c.base(rt, prt) })
		}
	}
	for i := 0; i < ridmap.Chunks; i++ {
		tasks = append(tasks, func(c *collector) error { return c.imrsChunk(i, owner) })
	}

	collectWorkers := e.recoveryWorkers(len(tasks))
	buildWorkers := e.recoveryWorkers(len(feeds))
	workers := max(collectWorkers, buildWorkers)
	collectors := make([]*collector, collectWorkers)
	for w := range collectors {
		collectors[w] = &collector{e: e, w: int32(w), feedOf: feedOf, runs: make([][]keyRef, len(feeds))}
	}

	err := e.recovery.phase(PhaseIndexRebuild, func() (int64, int, error) {
		for _, rt := range tables {
			var n int64
			for _, prt := range rt.parts {
				n += e.store.Part(prt.cat.ID).Rows.Load()
			}
			for _, ix := range rt.indexes {
				if ix.hash != nil {
					ix.hash.Reserve(int(n))
				}
			}
		}
		err := runParallel(collectWorkers, len(tasks), func(w, i int) error { return tasks[i](collectors[w]) })
		if err != nil {
			return e.recovery.RowsIndexed, workers, err
		}
		for _, c := range collectors {
			for _, en := range c.dead {
				en.MarkPacked()
				e.rmap.Delete(en.RID, en)
				e.store.RemoveEntry(en)
			}
			e.recovery.EntriesReclaimed += int64(len(c.dead))
			e.recovery.RowsIndexed += c.rows
		}
		// Each worker sorts its runs and turns them into B+tree items.
		items := make([][][]btree.Item, len(feeds)) // feed → worker → run
		for f := range items {
			items[f] = make([][]btree.Item, len(collectors))
		}
		_ = runParallel(collectWorkers, len(collectors), func(_, w int) error {
			c := collectors[w]
			for f, run := range c.runs {
				slices.SortFunc(run, func(a, b keyRef) int {
					return bytes.Compare(c.keys[a.off:a.end], c.keys[b.off:b.end])
				})
				out := make([]btree.Item, len(run))
				for j, k := range run {
					out[j] = btree.Item{Key: c.keys[k.off:k.end:k.end], RID: k.rid}
				}
				items[f][w] = out
			}
			c.runs = nil
			return nil
		})
		err = runParallel(buildWorkers, len(feeds), func(_, f int) error {
			ix := feeds[f]
			if err := ix.tree.BulkLoad(mergeRuns(items[f], byKey)); err != nil {
				return fmt.Errorf("core: index rebuild %s: %w", ix.def.Name, err)
			}
			ix.def.Root = ix.tree.Root()
			return nil
		})
		return e.recovery.RowsIndexed, workers, err
	})
	if err != nil {
		return err
	}

	return e.recovery.phase(PhaseQueueRebuild, func() (int64, int, error) {
		runs := make([][]stamp, len(collectors))
		for w, c := range collectors {
			runs[w] = c.stamps
		}
		_ = runParallel(len(runs), len(runs), func(_, w int) error {
			slices.SortFunc(runs[w], coldestFirst)
			return nil
		})
		order := mergeRuns(runs, coldestFirst)
		for _, s := range order {
			e.queues.Enqueue(collectors[s.w].live[s.i])
		}
		e.recovery.EntriesEnqueued = int64(len(order))
		return int64(len(order)), len(runs), nil
	})
}

// mergeRuns merges one or more sorted runs into one sorted slice,
// pairwise; on equal elements the earlier run's comes first.
func mergeRuns[T any](runs [][]T, cmp func(a, b T) int) []T {
	if len(runs) == 1 {
		return runs[0]
	}
	a, b := mergeRuns(runs[:len(runs)/2], cmp), mergeRuns(runs[len(runs)/2:], cmp)
	out := make([]T, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if cmp(b[0], a[0]) < 0 {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	return append(append(out, a...), b...)
}

// base indexes a partition's segment and heap rows that no IMRS entry
// shadows.
func (c *collector) base(rt *tableRT, prt *partRT) error {
	e := c.e
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
			if err := c.row(rt, r0, enc, nil); err != nil {
				return err
			}
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
		scanErr = c.row(rt, r0, data, nil)
		return scanErr == nil
	})
	if err == nil {
		err = scanErr
	}
	return err
}

// imrsChunk indexes the newest committed image of every live IMRS entry
// in chunk i of the RID map, and sorts the entries into live and dead.
func (c *collector) imrsChunk(i int, owner map[rid.PartitionID]*tableRT) error {
	var err error
	c.e.rmap.RangeChunk(i, func(r0 rid.RID, en *imrs.Entry) bool {
		rt := owner[r0.Partition()]
		if rt == nil {
			if !c.e.cat.DroppedPartition(r0.Partition()) {
				err = fmt.Errorf("core: recovered entry in unknown partition %v", r0)
			}
			return err == nil // an entry of a dropped table stays out of derived state
		}
		v := en.Visible(math.MaxUint64, 0)
		if v == nil || v.Data() == nil {
			// Committed tombstone (or fully reclaimed image) that survived
			// in the log: nothing to index, and leaving it in the RID map
			// with no queue membership would leak it forever.
			c.dead = append(c.dead, en)
			return true
		}
		c.stamps = append(c.stamps, stamp{at: en.LastAccess(), rid: r0, w: c.w, i: int32(len(c.live))})
		c.live = append(c.live, en)
		err = c.row(rt, r0, v.Data(), en)
		return err == nil
	})
	return err
}

// row decodes one recovered row and appends its key to the run of each
// of the table's indexes.
func (c *collector) row(rt *tableRT, r0 rid.RID, data []byte, en *imrs.Entry) error {
	rw, err := c.decode(rt, data)
	if err != nil {
		return err
	}
	first := c.feedOf[rt]
	for i, ix := range rt.indexes {
		off := len(c.keys)
		for _, o := range ix.def.ColOrds {
			if o < 0 || o >= len(rw) {
				return fmt.Errorf("row: key ordinal %d out of range", o)
			}
			c.keys = row.EncodeKey(c.keys, rw[o])
		}
		if !ix.def.Unique {
			c.keys = ridSuffix(c.keys, r0)
		}
		c.runs[first+i] = append(c.runs[first+i], keyRef{off: off, end: len(c.keys), rid: r0})
		if ix.hash != nil && en != nil {
			ix.hash.Put(c.keys[off:], en)
		}
	}
	c.rows++
	return nil
}

// decode decodes data into the collector's reused row without copying:
// string and bytes columns alias data, both as bytes values, which
// encode to the same index keys. The row is only good while data is.
func (c *collector) decode(rt *tableRT, data []byte) (row.Row, error) {
	rw := c.rw[:0]
	err := row.VisitEncoded(rt.cat.Schema, data, func(_ int, k row.Kind, i int64, f float64, b []byte) error {
		switch k {
		case row.KindInt64:
			rw = append(rw, row.Int64(i))
		case row.KindFloat64:
			rw = append(rw, row.Float64(f))
		case row.KindString, row.KindBytes:
			rw = append(rw, row.Bytes(b))
		default:
			rw = append(rw, row.Null)
		}
		return nil
	})
	c.rw = rw
	return rw, err
}
