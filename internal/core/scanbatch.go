package core

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/imrs"
	"repro/internal/rid"
	"repro/internal/row"
	"repro/internal/storage/colseg"
)

// scanYieldRows is how many rows a scan emits between cooperative
// scheduler yields. Segment decode is pure CPU work: without a yield, a
// scan on a small-GOMAXPROCS host keeps its P for the runtime's full
// async-preemption quantum (~10ms), and every OLTP commit in that
// window stalls waiting for the group-commit flusher to be scheduled.
// Yielding every couple thousand rows (~hundreds of microseconds of
// decode) bounds that wakeup latency at negligible cost to the scan.
const scanYieldRows = 2048

// scanScratch is the reusable working set of one ScanBatches call: the
// output batch, the full-segment column decodes, the selection vector,
// and the projection maps. Pooled so a steady scan workload allocates
// nothing per batch after warm-up.
type scanScratch struct {
	batch  colseg.Batch
	colvec []colseg.Vec      // per projected column, whole-segment decode
	keep   []int32           // selection vector into the current segment
	proj   []int             // projected schema ordinals, batch order
	kinds  []row.Kind        // projected column kinds, batch order
	colPos []int             // schema ordinal -> batch column, -1 = dropped
	rids   []rid.RID         // heap/IMRS RID staging
	segs   []*colseg.Segment // segments visited by this scan's segment pass
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// ScanBatches is the table scan: it visits every visible row of a table
// (all partitions) — first the cold-store segments, then the page-store
// heaps (skipping rows shadowed by IMRS entries or live segment copies,
// re-reading the rest under their row lock: read committed), then the
// IMRS-resident rows — and yields them in column batches of up to
// batchRows rows (0 = colseg.DefaultSegmentRows). Order is unspecified.
// cols selects and orders the projected columns (nil = all, schema
// order); projection is pushed into the segment decode — unprojected
// columns are never decompressed. Frozen rows decode straight from
// their segments into reused vectors (string values alias the immutable
// segment blob); heap and IMRS residents are appended row-wise. The
// batch passed to fn is only valid during the call. fn returns false to
// stop the scan.
func (t *Txn) ScanBatches(table string, cols []string, batchRows int, fn func(*colseg.Batch) bool) error {
	if t.done {
		return ErrTxnDone
	}
	rt, err := t.e.table(table)
	if err != nil {
		return err
	}
	if batchRows <= 0 {
		batchRows = colseg.DefaultSegmentRows
	}
	sch := rt.cat.Schema

	sc := scanScratchPool.Get().(*scanScratch)
	defer scanScratchPool.Put(sc)
	sc.proj = sc.proj[:0]
	sc.kinds = sc.kinds[:0]
	if cols == nil {
		for i := 0; i < sch.NumColumns(); i++ {
			sc.proj = append(sc.proj, i)
		}
	} else {
		for _, name := range cols {
			ci := sch.Ordinal(name)
			if ci < 0 {
				return fmt.Errorf("core: no column %q in table %q", name, table)
			}
			sc.proj = append(sc.proj, ci)
		}
	}
	sc.colPos = sc.colPos[:0]
	for i := 0; i < sch.NumColumns(); i++ {
		sc.colPos = append(sc.colPos, -1)
	}
	for j, ci := range sc.proj {
		sc.kinds = append(sc.kinds, sch.Column(ci).Kind)
		sc.colPos[ci] = j
	}
	sc.segs = sc.segs[:0]
	b := &sc.batch
	b.Reset(sc.kinds)

	stopped := false
	sinceYield := 0
	// flush yields the batch when it holds any rows; reports whether the
	// scan should continue. Every scanYieldRows flushed rows it also
	// yields the processor, so a CPU-bound scan cannot pin its P for the
	// async-preemption quantum and stall OLTP commit wakeups (see
	// scanYieldRows).
	flush := func() bool {
		if b.Len() == 0 {
			return true
		}
		sinceYield += b.Len()
		ok := fn(b)
		b.Reset(sc.kinds)
		if !ok {
			stopped = true
			return false
		}
		if sinceYield >= scanYieldRows {
			sinceYield = 0
			runtime.Gosched()
		}
		return true
	}

	for _, prt := range rt.parts {
		// Segment pass: build the selection vector under the scan
		// visibility rule, decode the projected columns once per
		// segment, then gather the selected rows batch by batch.
		for _, seg := range t.e.cold.Segments(prt.cat.ID) {
			if seg.TableID() != rt.cat.ID {
				continue
			}
			sc.segs = append(sc.segs, seg)
			sc.keep = sc.keep[:0]
			for i := 0; i < seg.Rows(); i++ {
				if t.segRowVisible(seg, i, seg.RIDAt(i)) {
					sc.keep = append(sc.keep, int32(i))
				}
			}
			if len(sc.keep) == 0 {
				continue
			}
			if cap(sc.colvec) < len(sc.proj) {
				sc.colvec = make([]colseg.Vec, len(sc.proj))
			}
			sc.colvec = sc.colvec[:len(sc.proj)]
			for j, ci := range sc.proj {
				sc.colvec[j].Reset(sc.kinds[j])
				if err := seg.AppendColumn(ci, &sc.colvec[j]); err != nil {
					return err
				}
			}
			prt.ilm.PageOps.Add(int64(len(sc.keep)))
			for off := 0; off < len(sc.keep); {
				room := batchRows - b.Len()
				if room == 0 {
					if !flush() {
						return nil
					}
					continue
				}
				span := sc.keep[off:min(off+room, len(sc.keep))]
				for _, i := range span {
					b.RIDs = append(b.RIDs, seg.RIDAt(int(i)))
				}
				for j := range sc.colvec {
					b.Cols[j].AppendSelect(&sc.colvec[j], span)
				}
				off += len(span)
			}
		}

		// Heap pass: rows appended one at a time under their row locks.
		sc.rids = sc.rids[:0]
		if err := prt.heap.Scan(func(r rid.RID, _ []byte) bool {
			sc.rids = append(sc.rids, r)
			return true
		}); err != nil {
			return err
		}
		for _, r0 := range sc.rids {
			if t.e.rmap.Get(r0) != nil {
				continue // visited via the IMRS pass
			}
			if _, _, k, ok := t.e.cold.Lookup(r0); ok && k == 0 {
				// Live cold copy: the segment pass emitted it; any heap
				// copy is a stale shadow. Killed copies mean the heap
				// image — written by the un-freeze — is the current one
				// (read-committed, like every page-store row).
				continue
			}
			data, found, err := t.lockedPageFetch(prt, r0)
			if err != nil {
				return err
			}
			if !found {
				continue
			}
			prt.ilm.PageOps.Inc()
			prt.ilm.PageReuseOps.Inc()
			if err := t.appendRowWise(sc, sch, r0, data); err != nil {
				return err
			}
			if b.Len() >= batchRows && !flush() {
				return nil
			}
		}
	}

	// IMRS pass: collect this table's entries, then resolve outside the
	// map's shard locks.
	partSet := make(map[rid.PartitionID]bool, len(rt.parts))
	for _, p := range rt.parts {
		partSet[p.cat.ID] = true
	}
	sc.rids = sc.rids[:0]
	t.e.rmap.Range(func(r0 rid.RID, _ *imrs.Entry) bool {
		if partSet[r0.Partition()] {
			sc.rids = append(sc.rids, r0)
		}
		return true
	})
	for _, r0 := range sc.rids {
		data, ok, err := t.imrsBatchImage(rt, r0, sc.segs)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := t.appendRowWise(sc, sch, r0, data); err != nil {
			return err
		}
		if b.Len() >= batchRows && !flush() {
			return nil
		}
	}
	if !stopped {
		flush()
	}
	return nil
}

// segRowVisible decides whether row i of seg belongs in this snapshot's
// scan: the copy must still be the newest cold copy of its RID, not be
// shadowed by a visible IMRS entry (the IMRS pass emits those), and be
// live — or killed after our snapshot by an un-freeze-by-update whose
// RID-map entry is still published, in which case the killed image is
// the committed state this snapshot should see. A kill WITHOUT an entry
// (delete, un-freeze to the heap) is read-committed and hides the copy
// from every snapshot — matching point reads, whose index entry or heap
// image already reflects the change. The kill timestamp is read BEFORE
// the RID map: a concurrent un-freeze publishes its IMRS entry first and
// kills second, so reading in the opposite order could miss both copies.
func (t *Txn) segRowVisible(seg *colseg.Segment, i int, r0 rid.RID) bool {
	k := seg.KillTS(i)
	en := t.e.rmap.Get(r0)
	if en != nil && en.Visible(t.snap, t.id) != nil {
		return false
	}
	if !t.e.cold.IsNewest(r0, seg, i) {
		return false
	}
	return k == 0 || (k > t.snap && en != nil)
}

func segSeen(seen []*colseg.Segment, seg *colseg.Segment) bool {
	for _, s := range seen {
		if s == seg {
			return true
		}
	}
	return false
}

// appendRowWise decodes one encoded row image into the scratch batch,
// honoring the projection. Variable-length values are copied into the
// batch arena: data aliases mutable storage (page frame or IMRS
// fragment) that may change once the row lock is released.
func (t *Txn) appendRowWise(sc *scanScratch, sch *row.Schema, r0 rid.RID, data []byte) error {
	b := &sc.batch
	err := row.VisitEncoded(sch, data, func(col int, k row.Kind, i int64, f float64, p []byte) error {
		pos := sc.colPos[col]
		if pos < 0 {
			return nil
		}
		v := &b.Cols[pos]
		switch {
		case k == 0:
			v.AppendNull()
		case k == row.KindInt64:
			v.AppendInt64(i)
		case k == row.KindFloat64:
			v.AppendFloat64(f)
		default:
			v.AppendBytes(b.Arena(p))
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.RIDs = append(b.RIDs, r0)
	return nil
}

// imrsBatchImage resolves one RID-map entry for the scan's IMRS pass,
// settling the overlap with the segment pass, and returns the visible
// encoded image if this pass is the one to emit the row. A visible
// entry is emitted here (segRowVisible suppressed any cold copy); an
// invisible or vanished entry defers to the cold copy the segment pass
// emitted — unless the row was frozen mid-scan into a segment this scan
// never visited (not in seen), in which case the frozen image is
// emitted here so a scan racing the packer does not lose the row.
func (t *Txn) imrsBatchImage(rt *tableRT, r0 rid.RID, seen []*colseg.Segment) ([]byte, bool, error) {
	seg, idx, k, coldOK := t.e.cold.Lookup(r0)
	en := t.e.rmap.Get(r0)
	if en != nil {
		if v := en.Visible(t.snap, t.id); v != nil {
			prt := t.e.partByID(en.Part)
			en.Touch(t.e.clock.Now())
			prt.ilm.IMRSSelects.Inc()
			return v.Data(), true, nil
		}
		if (coldOK && (k == 0 || k > t.snap)) || r0.IsVirtual() {
			// The segment pass showed the cold copy, or nothing is
			// visible to this snapshot.
			return nil, false, nil
		}
		// Physical entry invisible to this snapshot: the page store
		// holds the pre-migration committed image.
	} else {
		if coldOK && k == 0 && !segSeen(seen, seg) {
			// Frozen mid-scan into a segment published after our segment
			// pass: emit the frozen image directly.
			enc, err := seg.EncodeRowAt(idx, nil)
			if err != nil {
				return nil, false, err
			}
			if prt := t.e.partByID(r0.Partition()); prt != nil {
				prt.ilm.PageOps.Inc()
			}
			return enc, true, nil
		}
		if (coldOK && k == 0) || r0.IsVirtual() {
			// The segment pass emitted the live cold copy, or the row is
			// deleted/moved (read-committed).
			return nil, false, nil
		}
	}
	prt := t.e.partByID(r0.Partition())
	if prt == nil {
		return nil, false, fmt.Errorf("core: unknown partition in %v", r0)
	}
	data, found, err := t.lockedPageFetch(prt, r0)
	if err != nil || !found {
		return nil, false, err
	}
	prt.ilm.PageOps.Inc()
	prt.ilm.PageReuseOps.Inc()
	return data, true, nil
}
