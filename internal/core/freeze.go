package core

import (
	"math"

	"repro/internal/imrs"
	"repro/internal/rid"
	"repro/internal/storage/colseg"
	"repro/internal/wal"
)

// freezeEntries is the cold-store relocation path: instead of writing
// each row back to a slotted heap page, one pack transaction freezes the
// whole batch into a compressed column-grouped segment. Rows KEEP their
// RIDs — the RID map stays the single indirection layer, so no index is
// repointed — and point reads resolve through the cold directory.
//
// Per row:
//   - virtual rows and dirty physical rows are added to the segment
//     writer; the IMRS side logs a delete (sysimrslogs), and the frozen
//     image travels in the segment blob inside the syslogs RecSegFreeze;
//   - a dirty physical row leaves its stale heap copy IN PLACE: the
//     live cold entry shadows it on every read path, and the occupied
//     slot keeps the RID unique until delete/un-freeze retires both;
//   - clean cached rows just drop from the IMRS (the heap copy is
//     already authoritative), exactly like the legacy pack path;
//   - a row with a live older cold copy (possible if an un-freeze kill
//     was lost) logs RecSegKill so replay never sees two live copies.
//
// Side effects are strictly post-commit, in this order: kill old cold
// copies (the directory still maps to them), publish the new segments,
// unpublish the IMRS entries, reclaim. Readers
// that race the window between commit and publish still find the row:
// the IMRS entry is unpublished only after the segment is visible.
func (e *Engine) freezeEntries(rt *tableRT, prt *partRT, part rid.PartitionID, entries []*imrs.Entry) (int, int64, error) {
	packTxn := e.nextTxnID.Add(1)
	var lockedRIDs []rid.RID
	unlockAll := func() {
		for _, lr := range lockedRIDs {
			e.locks.Unlock(packTxn, lr)
		}
	}
	defer unlockAll()

	var sysRecs, imrsRecs []wal.Record
	var post []func(ts uint64)
	var segs []*colseg.Segment
	var killOld []rid.RID
	rows := 0
	var bytes int64

	w := colseg.NewWriter(rt.cat.ID, part, rt.cat.Schema, false)
	// cut finishes the in-progress segment: self-validate the blob by
	// re-opening it, log it, and queue it for post-commit publish.
	cut := func() error {
		if w.Rows() == 0 {
			return nil
		}
		blob, err := w.Finish(nil)
		if err != nil {
			return err
		}
		seg, err := colseg.Open(blob)
		if err != nil {
			return err
		}
		sysRecs = append(sysRecs, wal.Record{
			Type: wal.RecSegFreeze, Table: rt.cat.ID, After: blob,
		})
		segs = append(segs, seg)
		w.Reset()
		return nil
	}

	for _, en := range entries {
		if en.Packed() {
			continue
		}
		// Conditional lock: skip rows in active use.
		if !e.locks.TryLock(packTxn, en.RID) {
			e.queues.Enqueue(en)
			continue
		}
		lockedRIDs = append(lockedRIDs, en.RID)
		if en.Packed() {
			continue
		}
		v := en.Visible(math.MaxUint64, 0)
		if v == nil {
			// Tombstoned: the delete's commit already retired it.
			continue
		}
		data := v.Data()
		en := en

		freeze := en.RID.IsVirtual() || en.Dirty()
		if freeze {
			if err := w.Add(en.RID, data); err != nil {
				return rows, bytes, err
			}
			if _, _, k, ok := e.cold.Lookup(en.RID); ok && k == 0 {
				sysRecs = append(sysRecs, wal.Record{
					Type: wal.RecSegKill, Table: rt.cat.ID, RID: en.RID,
				})
				killOld = append(killOld, en.RID)
			}
			// A dirty physical row leaves its stale pre-update heap image
			// in place, deliberately: the copy is shadowed by the live
			// cold entry on every read path (point reads and scans check
			// the cold directory first), and keeping the slot occupied is
			// what guarantees the RID stays unique. Freeing it here let
			// the heap hand the slot to an unrelated insert while the
			// cold copy was still live — two logical rows sharing one
			// physical RID, the new one unreachable behind the old one's
			// segment image. The slot is reclaimed when the frozen row is
			// deleted or un-frozen, both of which retire the cold copy in
			// the same transaction.
			imrsRecs = append(imrsRecs, wal.Record{
				Type: wal.RecIMRSDelete, Table: rt.cat.ID, RID: en.RID, Aux: uint8(en.Origin),
			})
			if w.Rows() >= e.cfg.ColdSegmentRows {
				if err := cut(); err != nil {
					return rows, bytes, err
				}
			}
		}
		// Rows leaving the IMRS lose their hash fast-path entries either
		// way (the B+tree entries stay: same RID before and after).
		e.dropHashEntries(rt, en, data)
		rows++
		bytes += int64(en.LiveBytes())
		post = append(post, func(ts uint64) {
			en.MarkPacked()
			e.rmap.Delete(en.RID, en)
			e.queues.Remove(en)
			e.gc.RetireEntry(en, ts)
		})
	}
	if err := cut(); err != nil {
		return rows, bytes, err
	}

	if rows == 0 {
		return 0, 0, nil
	}
	ts := e.clock.Tick()
	hasSys := len(sysRecs) > 0
	// Same pipeline and ordering as Txn.Commit and the legacy pack: the
	// IMRS half turns durable (Aux=1 marks it contingent on the syslogs
	// commit) before the syslogs RecCommit is appended.
	if len(imrsRecs) > 0 {
		aux := uint8(0)
		if hasSys {
			aux = 1
		}
		for i := range imrsRecs {
			imrsRecs[i].TxnID = packTxn
			if _, err := e.imrslog.Append(&imrsRecs[i]); err != nil {
				return 0, 0, err
			}
		}
		cr := wal.Record{Type: wal.RecIMRSCommit, TxnID: packTxn, CommitTS: ts, Aux: aux}
		lsn, err := e.imrslog.Append(&cr)
		if err != nil {
			return 0, 0, err
		}
		if hasSys {
			for i := range sysRecs {
				sysRecs[i].TxnID = packTxn
				if _, err := e.syslog.Append(&sysRecs[i]); err != nil {
					return 0, 0, err
				}
			}
		}
		if err := e.imrslog.WaitDurable(lsn); err != nil {
			return 0, 0, err
		}
	} else if hasSys {
		for i := range sysRecs {
			sysRecs[i].TxnID = packTxn
			if _, err := e.syslog.Append(&sysRecs[i]); err != nil {
				return 0, 0, err
			}
		}
	}
	if hasSys {
		cr := wal.Record{Type: wal.RecCommit, TxnID: packTxn, CommitTS: ts}
		lsn, err := e.syslog.Append(&cr)
		if err != nil {
			return 0, 0, err
		}
		if err := e.syslog.WaitDurable(lsn); err != nil {
			return 0, 0, err
		}
	}

	// Kill superseded cold copies BEFORE publishing: Kill targets the
	// directory's newest entry, which must still be the old copy.
	for _, r := range killOld {
		e.cold.Kill(r, ts)
	}
	for _, seg := range segs {
		seg.FreezeTS = ts
		e.cold.Publish(seg)
	}
	for _, fn := range post {
		fn(ts)
	}
	// Reclaim synchronously so the freed memory is visible to the pack
	// cycle's own utilization accounting (and to anyone driving Step).
	e.gc.Drain()
	return rows, bytes, nil
}
