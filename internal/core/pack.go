package core

import (
	"fmt"
	"math"

	"repro/internal/imrs"
	"repro/internal/rid"
	"repro/internal/wal"
)

// relocator implements pack.Relocator over the engine: the logged
// relocation of cold IMRS rows to the page store (paper Sections VI-VII).
type relocator Engine

// packHome is where one pack transaction puts the row images it
// relocates — the only part of a pack that depends on the cold store's
// layout. place takes one locked row's newest committed image and
// buffers whatever the move must log; seal runs once before the commit;
// publish runs once the commit is durable, before the IMRS entries
// unpublish, so a racing reader always finds the row in one store.
type packHome interface {
	place(en *imrs.Entry, data []byte) error
	seal() error
	publish(ts uint64)
}

// packTxn is the log-side state of one pack transaction.
type packTxn struct {
	e                 *Engine
	rt                *tableRT
	prt               *partRT
	id                uint64
	locked            []rid.RID
	sysRecs, imrsRecs []wal.Record
}

// tryLock takes the conditional row lock pack runs under.
func (p *packTxn) tryLock(r rid.RID) bool {
	if !p.e.locks.TryLock(p.id, r) {
		return false
	}
	p.locked = append(p.locked, r)
	return true
}

// logIMRSDelete logs the row's departure from the IMRS (sysimrslogs).
func (p *packTxn) logIMRSDelete(en *imrs.Entry) {
	p.imrsRecs = append(p.imrsRecs, wal.Record{
		Type: wal.RecIMRSDelete, Table: p.rt.cat.ID, RID: en.RID, Aux: uint8(en.Origin),
	})
}

// PackEntries relocates a batch of cold entries from one partition in a
// single pack transaction, which commits through logCommit like any
// other:
//
//   - rows are taken under conditional locks; locked rows are skipped
//     and re-tailed (paper Section VII-B);
//   - each row's newest committed image goes to the pack home — a
//     slotted heap page (heapHome, below) or a column segment (coldHome,
//     freeze.go) — which logs the move on both sides; clean cached rows
//     just drop, the heap copy is already authoritative;
//   - after the commit flushes, the home publishes, entries unpublish
//     and their memory is retired to IMRS-GC.
//
// The whole move runs under relocMu, so a table scan's cut sees it
// either not begun or finished.
func (r *relocator) PackEntries(part rid.PartitionID, entries []*imrs.Entry) (int, int64, error) {
	e := (*Engine)(r)
	e.ckptMu.RLock()
	defer e.ckptMu.RUnlock()
	e.relocMu.Lock()
	defer e.relocMu.Unlock()

	prt := e.partByID(part)
	if prt == nil {
		return 0, 0, fmt.Errorf("core: pack of unknown partition %d", part)
	}
	rt := e.reg.Load().byID[prt.cat.Table.ID]
	if rt == nil {
		return 0, 0, fmt.Errorf("core: pack of unmounted table %d", prt.cat.Table.ID)
	}

	p := &packTxn{e: e, rt: rt, prt: prt, id: e.nextTxnID.Add(1)}
	defer func() {
		for _, lr := range p.locked {
			e.locks.Unlock(p.id, lr)
		}
	}()
	var home packHome = heapHome{p}
	if e.coldEnabled {
		home = newColdHome(p, part)
	}

	var placed []*imrs.Entry
	var bytes int64
	for _, en := range entries {
		if en.Packed() {
			continue
		}
		// Conditional lock: skip rows in active use.
		if !p.tryLock(en.RID) {
			e.queues.Enqueue(en)
			continue
		}
		if en.Packed() {
			continue
		}
		v := en.Visible(math.MaxUint64, 0)
		if v == nil {
			// Tombstoned: the delete's commit already retired it.
			continue
		}
		if err := home.place(en, v.Data()); err != nil {
			return len(placed), bytes, err
		}
		placed = append(placed, en)
		bytes += int64(en.LiveBytes())
	}
	if err := home.seal(); err != nil {
		return len(placed), bytes, err
	}
	if len(placed) == 0 {
		return 0, 0, nil
	}

	ts := e.clock.Tick()
	var marker *wal.Record
	if len(p.sysRecs) > 0 {
		marker = &wal.Record{Type: wal.RecCommit}
	}
	if err := e.logCommit(p.id, ts, p.imrsRecs, p.sysRecs, marker, nil, false); err != nil {
		return 0, 0, err
	}
	home.publish(ts)
	for _, en := range placed {
		en.MarkPacked()
		e.rmap.Delete(en.RID, en)
		e.queues.Remove(en)
		e.gc.RetireEntry(en)
	}
	// Reclaim synchronously so the freed memory is visible to the pack
	// cycle's own utilization accounting (and to anyone driving Step).
	e.gc.Drain()
	return len(placed), bytes, nil
}

// heapHome is the paper's own layout (DisableColdStore): inserted rows
// (virtual RIDs) get a page-store location and their index entries are
// repointed (logged insert); migrated/updated rows write their newest
// image back to their page-store RID (logged update). Nothing is
// deferred to seal or publish: the heap is written in place under the
// row locks.
type heapHome struct{ *packTxn }

func (heapHome) seal() error    { return nil }
func (heapHome) publish(uint64) {}

func (p heapHome) place(en *imrs.Entry, data []byte) error {
	e, rt := p.e, p.rt
	if en.RID.IsVirtual() {
		newRID, err := p.prt.heap.Insert(data)
		if err != nil {
			return err
		}
		// Lock the new location so concurrent readers resolving the
		// repointed index wait for the pack commit.
		p.tryLock(newRID)
		p.sysRecs = append(p.sysRecs, wal.Record{
			Type: wal.RecHeapInsert, Table: rt.cat.ID, RID: newRID, After: data,
		})
		if err := e.repointIndexes(rt, en, data, newRID); err != nil {
			return err
		}
		p.logIMRSDelete(en)
		return nil
	}
	if en.Dirty() {
		if err := p.prt.heap.Update(en.RID, data); err != nil {
			return err
		}
		p.sysRecs = append(p.sysRecs, wal.Record{
			Type: wal.RecHeapUpdate, Table: rt.cat.ID, RID: en.RID, After: data,
		})
		p.logIMRSDelete(en)
	}
	// Clean cached rows: nothing to log; the row simply leaves the IMRS.
	e.dropHashEntries(rt, en, data)
	return nil
}

// repointIndexes rewrites a packed inserted row's index entries from its
// virtual RID to its new page-store RID, and removes its hash fast-path
// entries (hash indexes span only IMRS rows).
func (e *Engine) repointIndexes(rt *tableRT, en *imrs.Entry, data []byte, newRID rid.RID) error {
	rw, err := e.decode(rt, data)
	if err != nil {
		return err
	}
	for _, ix := range rt.indexes {
		oldK, err := indexKey(ix, rw, en.RID)
		if err != nil {
			return err
		}
		if ix.def.Unique {
			if _, err := ix.tree.Update(oldK, newRID); err != nil {
				return err
			}
		} else {
			if _, _, err := ix.tree.Delete(oldK); err != nil {
				return err
			}
			newK, err := indexKey(ix, rw, newRID)
			if err != nil {
				return err
			}
			if err := ix.tree.Insert(newK, newRID); err != nil {
				return err
			}
		}
		if ix.hash != nil {
			ix.hash.Delete(oldK, en)
		}
	}
	return nil
}

// dropHashEntries removes an entry's hash fast-path entries when the row
// leaves the IMRS without an index repoint (physical RIDs).
func (e *Engine) dropHashEntries(rt *tableRT, en *imrs.Entry, data []byte) {
	rw, err := e.decode(rt, data)
	if err != nil {
		return
	}
	for _, ix := range rt.indexes {
		if ix.hash == nil {
			continue
		}
		if k, err := indexKey(ix, rw, en.RID); err == nil {
			ix.hash.Delete(k, en)
		}
	}
}
