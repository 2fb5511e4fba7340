package core

import "repro/internal/wal"

// logCommit is the dual-log commit protocol, written once for every
// transaction the engine runs: a user Commit, a 2PC Prepare, the local
// RecCommit of CommitPrepared (marker only) and the pack transaction.
// Callers hold ckptMu shared.
//
// The IMRS half (imrsRecs plus a RecIMRSCommit) goes to sysimrslogs, the
// page-store half (sysRecs) to syslogs, then the IMRS half is awaited,
// then the marker. marker is the syslogs record that decides the
// transaction — RecCommit, or RecPrepare carrying gid and coordinator —
// or nil for an IMRS-only transaction, whose RecIMRSCommit decides on
// its own. With a marker the RecIMRSCommit is contingent (Aux=1):
// recovery applies the IMRS half only if the syslogs outcome is commit.
//
// Where the marker is appended is keyed on the marker, not the caller. A
// deciding RecCommit is appended only once the IMRS half is durable: a
// racing group flush could otherwise persist the RecCommit first, and a
// crash between the two logs would resurrect a mixed transaction whose
// IMRS half was lost. A RecPrepare may be appended before that wait —
// the decision that could make the transaction a winner is logged only
// after Prepare (both waits included) has returned. The other syslogs
// records are harmless without their marker and ride any earlier flush.
//
// Every append happens before the first wait, so concurrent committers
// coalesce into shared backend writes and syncs. On error nothing of the
// transaction can surface later — a failed Append buffers nothing, a
// failed WaitDurable poisons the log (wal.ErrPoisoned) — and a poisoned
// log forces the engine ReadOnly here, for every caller: later writes
// are rejected up front instead of each dying against the dead log.
//
// fl holds the committing transaction's slots in the logs' counts of
// writers (nil for the callers that are not user transactions). Once
// its records are appended to a log, its slot there is given up, or
// with handOn kept as a spare for the client's next transaction
// (txn.go: logPeers).
func (e *Engine) logCommit(id, ts uint64, imrsRecs, sysRecs []wal.Record, marker *wal.Record, fl *inFlight, handOn bool) (err error) {
	defer func() {
		if err != nil {
			e.notePoison()
		}
	}()
	var imrsLSN, markerLSN uint64
	if len(imrsRecs) > 0 {
		for i := range imrsRecs {
			imrsRecs[i].TxnID = id
			if _, err = e.imrslog.Append(&imrsRecs[i]); err != nil {
				return err
			}
		}
		cr := wal.Record{Type: wal.RecIMRSCommit, TxnID: id, CommitTS: ts}
		if marker != nil {
			cr.Aux = 1
		}
		if imrsLSN, err = e.imrslog.Append(&cr); err != nil {
			return err
		}
	}
	e.leave(fl, true, false, handOn)
	for i := range sysRecs {
		sysRecs[i].TxnID = id
		if _, err = e.syslog.Append(&sysRecs[i]); err != nil {
			return err
		}
	}
	if marker != nil {
		marker.TxnID, marker.CommitTS = id, ts
		if marker.Type == wal.RecPrepare {
			if markerLSN, err = e.syslog.Append(marker); err != nil {
				return err
			}
		}
	}
	if marker == nil || markerLSN != 0 {
		e.leave(fl, false, true, handOn)
	}
	if imrsLSN != 0 {
		if err = e.imrslog.WaitDurable(imrsLSN); err != nil {
			return err
		}
	}
	if marker == nil {
		return nil
	}
	if markerLSN == 0 {
		if markerLSN, err = e.syslog.Append(marker); err != nil {
			return err
		}
		e.leave(fl, false, true, handOn)
	}
	return e.syslog.WaitDurable(markerLSN)
}
