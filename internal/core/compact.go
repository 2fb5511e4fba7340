package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/imrs"
	"repro/internal/rid"
	"repro/internal/wal"
)

// ErrNoLogFactory reports that compaction is unavailable because the
// configuration supplied a single fixed sysimrslogs backend.
var ErrNoLogFactory = errors.New("core: sysimrslogs compaction needs Config.IMRSLogFactory")

// CompactIMRSLog rewrites sysimrslogs to contain exactly the live IMRS
// content, bounding the redo-only log's growth (it otherwise accumulates
// every IMRS operation ever made, since the IMRS is never checkpointed).
//
// The engine quiesces, writes a snapshot of every live IMRS row as one
// committed batch into a fresh log generation, switches to it, and
// checkpoints; the checkpoint record pins the new generation, so a crash
// at any point recovers from whichever generation the last durable
// checkpoint references. Old generation files are left behind for the
// operator to remove (they are never read again once a newer checkpoint
// exists).
func (e *Engine) CompactIMRSLog() error {
	if e.cfg.IMRSLogFactory == nil {
		return ErrNoLogFactory
	}
	e.quiesce()
	defer e.ckptMu.Unlock()

	newGen := e.imrsGen + 1
	backend, err := e.cfg.IMRSLogFactory(newGen, true)
	if err != nil {
		return fmt.Errorf("core: compaction backend: %w", err)
	}
	newLog, err := wal.NewLog(backend)
	if err != nil {
		return err
	}
	newLog.SetRetrier(e.walRetrier)
	newLog.SetPeers(&e.imrsPeers.Peers)

	compTxn := e.nextTxnID.Add(1)
	rows := 0
	var werr error
	e.rmap.Range(func(r rid.RID, en *imrs.Entry) bool {
		v := en.Visible(math.MaxUint64, 0)
		if v == nil {
			return true // tombstoned, awaiting GC: not live content
		}
		data := v.Data()
		if data == nil {
			return true
		}
		prt := e.partByID(en.Part)
		if prt == nil {
			werr = fmt.Errorf("core: compaction found entry in unknown partition %v", r)
			return false
		}
		rec := wal.Record{
			Type: wal.RecIMRSInsert, TxnID: compTxn,
			Table: prt.cat.Table.ID, RID: r,
			Aux: uint8(en.Origin), After: data,
		}
		if _, err := newLog.Append(&rec); err != nil {
			werr = err
			return false
		}
		rows++
		return true
	})
	if werr != nil {
		return werr
	}
	cr := wal.Record{Type: wal.RecIMRSCommit, TxnID: compTxn, CommitTS: e.clock.Now()}
	if _, err := newLog.Append(&cr); err != nil {
		return err
	}
	if err := newLog.FlushAll(); err != nil {
		return err
	}

	old := e.imrslog
	e.imrslog = newLog
	e.imrsGen = newGen
	// Durably pin the new generation. Until this checkpoint flushes, a
	// crash recovers from the old generation, which is still complete.
	if err := e.checkpointLocked(); err != nil {
		return err
	}
	_ = old.Close()
	// The new generation holds every live entry's image, cached rows'
	// included: from here their updates may log deltas.
	e.rmap.Range(func(_ rid.RID, en *imrs.Entry) bool {
		en.MarkLogged()
		return true
	})
	return nil
}

// IMRSLogGeneration returns the current sysimrslogs generation.
func (e *Engine) IMRSLogGeneration() uint64 {
	e.ckptMu.RLock()
	defer e.ckptMu.RUnlock()
	return e.imrsGen
}

// IMRSLogBytes returns the byte size of the current sysimrslogs.
func (e *Engine) IMRSLogBytes() int64 {
	e.ckptMu.RLock()
	defer e.ckptMu.RUnlock()
	return e.imrslog.Size()
}
