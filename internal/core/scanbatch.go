package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/imrs"
	"repro/internal/rid"
	"repro/internal/row"
	"repro/internal/storage/colseg"
)

// scanYieldRows is how many rows a scan emits between cooperative
// scheduler yields. Segment decode is pure CPU work: without a yield, a
// scan on a small-GOMAXPROCS host keeps its P for the runtime's full
// async-preemption quantum (~10ms), and every OLTP committer a
// group-commit round releases in that window stalls until it is
// scheduled again.
// Yielding every couple thousand rows (~hundreds of microseconds of
// decode) bounds that wakeup latency at negligible cost to the scan.
const scanYieldRows = 2048

// scanScratch is the reusable working set of one ScanBatches call: the
// output batch, the full-segment column decodes, the projection maps,
// the scan's cut and its bookkeeping. Pooled so a steady scan workload
// allocates nothing per batch after warm-up.
type scanScratch struct {
	batch  colseg.Batch
	colvec []colseg.Vec // per projected column, whole-segment decode
	proj   []int        // projected schema ordinals, batch order
	kinds  []row.Kind   // projected column kinds, batch order
	colPos []int        // schema ordinal -> batch column, -1 = dropped

	// The cut: the table's RID-map entries, cold segments and heap RIDs,
	// copied together under Engine.relocMu.
	ents []*imrs.Entry
	segs []*colseg.Segment
	rids []rid.RID

	keep   []int32   // selected rows of the cut's segments, back to back
	segEnd []int     // segs[i]'s rows are keep[segEnd[i-1]:segEnd[i]]
	shown  []rid.RID // RIDs emitted so far, sorted before each search
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// put returns sc to the pool without pinning the entries and segments
// of its cut.
func (sc *scanScratch) put() {
	clear(sc.ents)
	clear(sc.segs)
	sc.ents, sc.segs = sc.ents[:0], sc.segs[:0]
	scanScratchPool.Put(sc)
}

// ScanBatches is the table scan: it visits every visible row of a table
// (all partitions) and yields them in column batches of up to batchRows
// rows (0 = colseg.DefaultSegmentRows). Order is unspecified.
//
// The scan reads one cut of the table's three homes — its RID-map
// entries, its cold segments and its heap RIDs, copied under relocMu so
// that no pack move is half done in it — and emits each row from
// exactly one home of that cut (DESIGN.md §11 "One scan cut"):
//
//  1. each cut entry with a version visible to the snapshot;
//  2. each cut segment row that was the newest copy of its RID at the
//     cut, is visible to the snapshot (colseg.Segment.Visible), was not
//     emitted in 1 and has not been deleted since (read committed);
//  3. each cut heap RID emitted by neither, re-read under its row lock
//     (read committed, like every page-store row).
//
// Rows packed after the cut are read from their old home: their IMRS
// memory stays allocated while this transaction is registered.
//
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
	defer sc.put()
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
	b := &sc.batch
	b.Reset(sc.kinds)

	cutTS, err := t.takeCut(rt, sc)
	if err != nil {
		return err
	}
	t.selectCold(rt, sc, cutTS)

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

	// 1. IMRS entries.
	sc.shown = sc.shown[:0]
	for _, en := range sc.ents {
		v := en.Visible(t.snap, t.id)
		if v == nil {
			continue
		}
		sc.shown = append(sc.shown, en.RID)
		en.Touch(cutTS)
		rt.part(en.Part).ilm.IMRSSelects.Inc()
		if err := t.appendRowWise(sc, sch, en.RID, v.Data()); err != nil {
			return err
		}
		if b.Len() >= batchRows && !flush() {
			return nil
		}
	}
	slices.Sort(sc.shown)
	fromIMRS := len(sc.shown)

	// 2. Segment rows: drop the selected rows emitted in 1 or since
	// removed by a read-committed kill, decode the projected columns once
	// per segment, then gather the rest batch by batch. Physical RIDs
	// join shown: their heap copy is a stale shadow.
	lo := 0
	for s, seg := range sc.segs {
		n, hi := lo, sc.segEnd[s]
		for _, i := range sc.keep[lo:hi] {
			r0 := seg.RIDAt(int(i))
			if _, dup := slices.BinarySearch(sc.shown[:fromIMRS], r0); dup || seg.Hidden(int(i)) {
				continue
			}
			sc.keep[n] = i
			n++
			if !r0.IsVirtual() {
				sc.shown = append(sc.shown, r0)
			}
		}
		sel := sc.keep[lo:n]
		lo = hi
		if len(sel) == 0 {
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
		rt.part(seg.Part()).ilm.PageOps.Add(int64(len(sel)))
		for off := 0; off < len(sel); {
			room := batchRows - b.Len()
			if room == 0 {
				if !flush() {
					return nil
				}
				continue
			}
			span := sel[off:min(off+room, len(sel))]
			for _, i := range span {
				b.RIDs = append(b.RIDs, seg.RIDAt(int(i)))
			}
			for j := range sc.colvec {
				b.Cols[j].AppendSelect(&sc.colvec[j], span)
			}
			off += len(span)
		}
	}
	slices.Sort(sc.shown)

	// 3. Heap rows, one at a time under their row locks.
	for _, r0 := range sc.rids {
		if _, dup := slices.BinarySearch(sc.shown, r0); dup {
			continue
		}
		prt := rt.part(r0.Partition())
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
	if !stopped {
		flush()
	}
	return nil
}

// takeCut copies rt's RID-map entries, cold segments and heap RIDs into
// sc under relocMu, and returns the cut's timestamp: every pack move
// committed at or before it is in the cut, every later one is not.
// The lock is never held while the scan calls fn, so a callback may
// itself drive a pack.
func (t *Txn) takeCut(rt *tableRT, sc *scanScratch) (uint64, error) {
	e := t.e
	e.relocMu.RLock()
	defer e.relocMu.RUnlock()
	sc.ents, sc.segs, sc.rids = sc.ents[:0], sc.segs[:0], sc.rids[:0]
	e.rmap.Range(func(r0 rid.RID, en *imrs.Entry) bool {
		if rt.part(r0.Partition()) != nil {
			sc.ents = append(sc.ents, en)
		}
		return true
	})
	for _, prt := range rt.parts {
		sc.segs = e.cold.AppendSegments(sc.segs, prt.cat.ID)
		if err := prt.heap.Scan(func(r0 rid.RID, _ []byte) bool {
			sc.rids = append(sc.rids, r0)
			return true
		}); err != nil {
			return 0, err
		}
	}
	return e.clock.Now(), nil
}

// selectCold selects the cut's segment rows this snapshot may read:
// the newest copy of its RID at the cut, and visible to the snapshot.
// It runs before any entry's visibility is read. An un-freeze stamps
// its IMRS version before it kills the cold copy, so a kill seen here
// means the version is visible to the entry pass, and a kill not seen
// here leaves the copy selected: an un-freeze committing beside the
// scan cannot hide the row from both homes.
func (t *Txn) selectCold(rt *tableRT, sc *scanScratch, cutTS uint64) {
	sc.keep, sc.segEnd = sc.keep[:0], sc.segEnd[:0]
	for _, seg := range sc.segs {
		if seg.TableID() == rt.cat.ID {
			for i := 0; i < seg.Rows(); i++ {
				if seg.NewestAt(i, cutTS) && seg.Visible(i, t.snap) {
					sc.keep = append(sc.keep, int32(i))
				}
			}
		}
		sc.segEnd = append(sc.segEnd, len(sc.keep))
	}
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
