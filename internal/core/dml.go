package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/ilm"
	"repro/internal/imrs"
	"repro/internal/index/btree"
	"repro/internal/rid"
	"repro/internal/row"
	"repro/internal/storage/page"
	"repro/internal/wal"
)

// opMark snapshots the txn's mutation buffers so a failed statement can
// unwind without aborting the whole transaction.
type opMark struct {
	undo, sys, imrs, staged, atCommit, newEntries int
}

func (t *Txn) mark() opMark {
	return opMark{
		undo: len(t.undo), sys: len(t.sysRecs), imrs: len(t.imrsRecs),
		staged: len(t.staged), atCommit: len(t.atCommit), newEntries: len(t.newEntries),
	}
}

func (t *Txn) unwind(m opMark) {
	for i := len(t.undo) - 1; i >= m.undo; i-- {
		t.undo[i]()
	}
	t.undo = t.undo[:m.undo]
	t.sysRecs = t.sysRecs[:m.sys]
	t.imrsRecs = t.imrsRecs[:m.imrs]
	t.staged = t.staged[:m.staged]
	t.atCommit = t.atCommit[:m.atCommit]
	t.newEntries = t.newEntries[:m.newEntries]
}

// maxRowBytes bounds encoded rows so that every row — wherever it
// currently lives — fits a page-store slot including the heap record
// header (1 flag byte, or 9 for a moved record).
const maxRowBytes = page.MaxRecordSize - 9

// ridSuffix makes non-unique index keys unique per row.
func ridSuffix(k row.Key, r rid.RID) row.Key {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(r))
	return append(k, b[:]...)
}

// indexKey builds the B-tree key for row r under index ix.
func indexKey(ix *indexRT, rw row.Row, r rid.RID) (row.Key, error) {
	if ix.def.Unique {
		return row.KeyOf(rw, ix.def.ColOrds)
	}
	k, err := row.AppendKeyOf(make(row.Key, 0, row.KeySize(rw, ix.def.ColOrds)+8), rw, ix.def.ColOrds)
	if err != nil {
		return nil, err
	}
	return ridSuffix(k, r), nil
}

func (e *Engine) decode(rt *tableRT, data []byte) (row.Row, error) {
	return row.Decode(rt.cat.Schema, data)
}

// pkOf recomputes the primary-key key of a decoded row.
func pkOf(rt *tableRT, rw row.Row) (row.Key, error) {
	return row.KeyOf(rw, rt.cat.PKOrds)
}

// beginWrite opens a write statement on table: the transaction must be
// live and the engine writable, and the statement takes the
// transaction's slots in the logs' counts of writers.
func (t *Txn) beginWrite(table string) (*tableRT, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	if err := t.e.health.writable(); err != nil {
		return nil, err
	}
	t.e.join(&t.fl, true, true)
	return t.e.table(table)
}

// Insert adds a row. The storage decision follows Section IV: inserts go
// to the IMRS when the partition is insert-enabled and the cache accepts
// new rows; otherwise (or on cache pressure) to the page store.
// A duplicate key fails the statement when its index entry is inserted
// (insertIndexEntries), and the statement unwinds.
func (t *Txn) Insert(table string, rw row.Row) error {
	rt, err := t.beginWrite(table)
	if err != nil {
		return err
	}
	if err := rt.cat.Schema.Validate(rw); err != nil {
		return err
	}
	cp, err := rt.cat.PartitionFor(rw)
	if err != nil {
		return err
	}
	prt := t.e.partByID(cp.ID)
	encSize := row.EncodedSize(rw)
	if encSize > maxRowBytes {
		return ErrRowTooLarge
	}

	if prt.ilm.Enabled(ilm.OpInsert) && t.e.packer.AcceptNewRows() && t.e.imrsAdmission() {
		err := t.insertIMRS(rt, prt, rw, encSize)
		if err != imrs.ErrCacheFull {
			return err
		}
		// Cache pressure: fall back to the page store.
	}
	return t.insertPage(rt, prt, rw, encSize)
}

// newEntry creates an IMRS entry holding rw's encoding, encoded
// straight into the entry's fragment (one allocation, no intermediate
// buffer). rw must already be schema-validated.
func (t *Txn) newEntry(r0 rid.RID, part rid.PartitionID, origin imrs.Origin, rw row.Row, encSize int) (*imrs.Entry, error) {
	return t.e.store.CreateEntryFunc(r0, part, origin, encSize, func(dst []byte) []byte {
		return row.AppendEncoded(rw, dst)
	}, t.id)
}

func (t *Txn) insertIMRS(rt *tableRT, prt *partRT, rw row.Row, encSize int) error {
	m := t.mark()
	r0 := prt.cat.NextVirtualRID()
	if err := t.lock(r0); err != nil {
		return err
	}
	en, err := t.newEntry(r0, prt.cat.ID, imrs.OriginInserted, rw, encSize)
	if err != nil {
		return err // ErrCacheFull bubbles to the caller's fallback
	}
	en.MarkDirty()
	v := en.Head()
	t.e.rmap.Put(r0, en)
	t.undo = append(t.undo, func() {
		if !t.e.store.AbortVersion(en, v) {
			en.MarkPacked()
			t.e.rmap.Delete(r0, en)
		}
	})
	if err := t.insertIndexEntries(rt, rw, r0, en); err != nil {
		t.unwind(m)
		return err
	}
	// After references the fragment image directly: the wal layer copies
	// the record into its pending buffer at Append time (during Commit,
	// while the uncommitted version still pins the fragment), so no
	// separate log copy of the row is needed.
	t.imrsRecs = append(t.imrsRecs, wal.Record{
		Type: wal.RecIMRSInsert, Table: rt.cat.ID, RID: r0,
		Aux: uint8(imrs.OriginInserted), After: v.Data(),
	})
	t.staged = append(t.staged, v)
	t.newEntries = append(t.newEntries, en)
	prt.ilm.IMRSInserts.Inc()
	prt.ilm.NewRows.Inc()
	return nil
}

func (t *Txn) insertPage(rt *tableRT, prt *partRT, rw row.Row, encSize int) error {
	m := t.mark()
	enc := row.AppendEncoded(rw, t.encBuf(encSize))
	r0, err := prt.heap.Insert(enc)
	if err != nil {
		return err
	}
	if err := t.lock(r0); err != nil {
		_ = prt.heap.Delete(r0)
		return err
	}
	t.undo = append(t.undo, func() { _ = prt.heap.Delete(r0) })
	if err := t.insertIndexEntries(rt, rw, r0, nil); err != nil {
		t.unwind(m)
		return err
	}
	t.sysRecs = append(t.sysRecs, wal.Record{
		Type: wal.RecHeapInsert, Table: rt.cat.ID, RID: r0, After: enc,
	})
	prt.ilm.PageOps.Inc()
	return nil
}

// insertIndexEntries adds the row to every index; en is non-nil for
// IMRS-resident rows (hash fast path entries).
func (t *Txn) insertIndexEntries(rt *tableRT, rw row.Row, r0 rid.RID, en *imrs.Entry) error {
	for _, ix := range rt.indexes {
		k, err := indexKey(ix, rw, r0)
		if err != nil {
			return err
		}
		if err := ix.tree.Insert(k, r0); err != nil {
			if errors.Is(err, btree.ErrDuplicate) {
				return ErrDuplicateKey
			}
			return err
		}
		t.undo = append(t.undo, func() { _, _, _ = ix.tree.Delete(k) })
		if ix.hash != nil && en != nil {
			ix.hash.Put(k, en)
			t.undo = append(t.undo, func() { ix.hash.Delete(k, en) })
		}
	}
	return nil
}

// Get returns the row with the given primary key, or found=false: it
// is GetCols over every column into a fresh row.
func (t *Txn) Get(table string, pk []row.Value) (row.Row, bool, error) {
	rt, ok, err := t.get(table, pk)
	if err != nil || !ok {
		return nil, false, err
	}
	rw := make(row.Row, rt.cat.Schema.NumColumns())
	if err := t.sc.img.Decode(nil, rw); err != nil {
		return nil, false, err
	}
	return rw, true, nil
}

// GetCols reads the columns at cols (schema ordinals in output order;
// nil: every column) of the row with the given primary key into dst,
// which must be as wide, and reports whether the row exists. Only the
// returned string and bytes payloads are copied (row.Image.Decode), so
// reading int columns allocates nothing.
func (t *Txn) GetCols(table string, pk []row.Value, cols []int, dst row.Row) (bool, error) {
	_, ok, err := t.get(table, pk)
	if err != nil || !ok {
		return false, err
	}
	return true, t.sc.img.Decode(cols, dst)
}

// get resolves the row with primary key pk to its visible image, held
// in the transaction's image (t.sc.img), which the caller decodes
// before its next read. A hit on an IMRS-resident version counts as an
// IMRS select; a page-store read may trigger the Section IV caching
// path (unique-index access brings the row into the IMRS in
// anticipation of re-access).
func (t *Txn) get(table string, pk []row.Value) (*tableRT, bool, error) {
	if t.done {
		return nil, false, ErrTxnDone
	}
	rt, err := t.e.table(table)
	if err != nil {
		return nil, false, err
	}
	key := t.pkKey(pk)
	pkIx := rt.indexes[0]

	// Hash fast path: IMRS-resident rows only.
	if pkIx.hash != nil {
		if en := pkIx.hash.Get(key); en != nil {
			if v := en.Visible(t.snap, t.id); v != nil {
				prt := t.e.partByID(en.Part)
				en.Touch(t.e.clock.Now())
				prt.ilm.IMRSSelects.Inc()
				t.sc.img.Set(rt.cat.Schema, v.Data())
				return rt, true, nil
			}
		}
	}

	for attempt := 0; attempt < 3; attempt++ {
		r0, found, err := pkIx.tree.Search(key)
		if err != nil {
			return nil, false, err
		}
		if !found {
			return nil, false, nil
		}
		ok, retry, err := t.readRowAt(rt, r0, key, true)
		if err != nil {
			return nil, false, err
		}
		if !retry {
			return rt, ok, nil
		}
	}
	return nil, false, ErrRetry
}

// readRowAt resolves a RID obtained from an index to its visible image
// and points the transaction's image (t.sc.img) at it, transparently
// checking the RID map first (paper Section II). The image is the IMRS
// version itself, or a page-store or cold-segment row copied into the
// transaction's row buffer (t.sc.rowBuf); either stays valid until the
// transaction's next read. retry reports that the row moved between
// stores and the index lookup should be repeated. pointAccess enables
// the ILM caching decision.
func (t *Txn) readRowAt(rt *tableRT, r0 rid.RID, probeKey row.Key, pointAccess bool) (ok, retry bool, err error) {
	prt := rt.part(r0.Partition())
	if prt == nil {
		return false, false, fmt.Errorf("core: unknown partition in %v", r0)
	}
	en := t.e.rmap.Get(r0)
	if en != nil {
		if v := en.Visible(t.snap, t.id); v != nil {
			en.Touch(t.e.clock.Now())
			prt.ilm.IMRSSelects.Inc()
			retry, err := t.setImage(rt, v.Data(), probeKey)
			return err == nil && !retry, retry, err
		}
		// Invisible entry: an uncommitted insert or migration, a deleted
		// row, or an un-freeze this snapshot predates. The cold copy or
		// the page store below holds the committed image, if any.
	}
	// Cold-store resolution: serve the segment copy this snapshot reads
	// (colseg.Segment.Visible: live, or killed after the snapshot by a
	// versioned kill).
	if seg, idx, k, ok := t.e.cold.Lookup(r0); ok && seg.Visible(idx, t.snap) && !t.killStaged(r0) {
		enc, err := seg.EncodeRowAt(idx, t.sc.rowBuf[:0])
		if err != nil {
			return false, false, err
		}
		t.sc.rowBuf = enc
		if retry, err := t.setImage(rt, enc, probeKey); err != nil || retry {
			return false, retry, err
		}
		prt.ilm.PageOps.Inc()
		if pointAccess && k == 0 {
			t.maybeCache(rt, prt, r0, enc, true)
		}
		return true, false, nil
	} else if r0.IsVirtual() {
		// No image for this snapshot: the entry is invisible, or the cold
		// copy was killed (deleted, or un-frozen to a fresh heap RID). In
		// neither home, the row was packed after the index lookup and the
		// index now points at its page-store RID: retry.
		return false, en == nil && !ok, nil
	}
	data, found, err := t.lockedPageFetch(prt, r0)
	if err != nil || !found {
		return false, false, err
	}
	if retry, err := t.setImage(rt, data, probeKey); err != nil || retry {
		return false, retry, err
	}
	prt.ilm.PageOps.Inc()
	prt.ilm.PageReuseOps.Inc()
	if pointAccess {
		t.maybeCache(rt, prt, r0, data, false)
	}
	return true, false, nil
}

// setImage points the transaction's image at a row image; with
// probeKey set, retry reports that the image no longer carries that
// primary key (the index raced a key change or a move). The key is read
// off the image, not off a decoded row.
func (t *Txn) setImage(rt *tableRT, data []byte, probeKey row.Key) (retry bool, err error) {
	im := &t.sc.img
	im.Set(rt.cat.Schema, data)
	if probeKey == nil {
		return false, nil
	}
	got, err := im.AppendKey(t.sc.vkey[:0], rt.cat.PKOrds)
	if err != nil {
		return false, err
	}
	t.sc.vkey = got
	return !bytes.Equal(got, probeKey), nil
}

// lockedPageFetch reads a page-store row under its row lock (read
// committed) into the transaction's row buffer: a write in flight holds
// the lock, so the read waits for the outcome. The lock is released
// immediately unless this transaction already holds it.
func (t *Txn) lockedPageFetch(prt *partRT, r0 rid.RID) (data []byte, found bool, err error) {
	_, held := t.locks[r0]
	if !held {
		if err := t.waitLock(r0); err != nil {
			return nil, false, err
		}
		defer t.e.locks.Unlock(t.id, r0)
	}
	data, err = prt.heap.FetchAppend(t.sc.rowBuf[:0], r0)
	if err != nil {
		// Dead slot or missing page: the row does not exist (deleted).
		return nil, false, nil
	}
	t.sc.rowBuf = data
	return data, true, nil
}

// maybeCache implements the Section IV "select caches the row" path:
// a point access to a page-store row copies it into the IMRS as a clean
// cached row, in anticipation of re-access. data is the image held in
// t.sc.img. Conditional lock only; the hot path never blocks for
// caching.
func (t *Txn) maybeCache(rt *tableRT, prt *partRT, r0 rid.RID, data []byte, fromCold bool) {
	if !prt.ilm.Enabled(ilm.OpCache) || !t.e.packer.AcceptNewRows() || !t.e.imrsAdmission() {
		return
	}
	if !t.tryLock(r0) {
		return
	}
	if t.e.rmap.Get(r0) != nil {
		return // raced another cacher
	}
	if fromCold {
		// data was read from a cold segment without the row lock; under
		// the lock, re-verify the segment copy is still the authoritative
		// image (an un-freeze or delete would have killed it).
		if _, _, k, ok := t.e.cold.Lookup(r0); !ok || k != 0 {
			return
		}
	}
	en, err := t.e.store.CreateEntry(r0, prt.cat.ID, imrs.OriginCached, data, t.id)
	if err != nil {
		return // cache full: skip silently
	}
	if !t.e.rmap.Put(r0, en) {
		t.e.store.AbortVersion(en, en.Head())
		return
	}
	// Cached rows hold already-committed data: commit the version
	// immediately at the current timestamp. No logging — a cached row is
	// a clean copy and simply vanishes on crash.
	now := t.e.clock.Now()
	t.e.store.Commit(en.Head(), now)
	en.Touch(now)
	for _, ix := range rt.indexes {
		if ix.hash == nil {
			continue
		}
		// data is the image in t.sc.img; the key is the hash's own copy.
		if k, err := t.sc.img.AppendKey(nil, ix.def.ColOrds); err == nil {
			if !ix.def.Unique {
				k = ridSuffix(k, r0)
			}
			ix.hash.Put(k, en)
		}
	}
	t.e.gc.NewRow(en)
	prt.ilm.NewRows.Inc()
	prt.ilm.Cachings.Inc()
}

// locateForWrite finds the row for pk, locks it for the transaction, and
// re-resolves its location under the lock.
func (t *Txn) locateForWrite(rt *tableRT, key row.Key) (r0 rid.RID, en *imrs.Entry, found bool, err error) {
	pkIx := rt.indexes[0]
	for attempt := 0; attempt < 3; attempt++ {
		r0, ok, err := pkIx.tree.Search(key)
		if err != nil {
			return rid.Zero, nil, false, err
		}
		if !ok {
			return rid.Zero, nil, false, nil
		}
		if err := t.lock(r0); err != nil {
			return rid.Zero, nil, false, err
		}
		en = t.e.rmap.Get(r0)
		if en == nil && r0.IsVirtual() {
			if _, _, k, ok := t.e.cold.Lookup(r0); ok && k == 0 {
				// Frozen row: located, locked, live in the cold store.
				return r0, nil, true, nil
			}
			// Packed while we waited for the lock: the index entry has
			// been repointed; look up again.
			continue
		}
		return r0, en, true, nil
	}
	return rid.Zero, nil, false, ErrRetry
}

// currentImage reads the newest committed (or own uncommitted) image of
// a located, locked row.
func (t *Txn) currentImage(rt *tableRT, r0 rid.RID, en *imrs.Entry) (row.Row, []byte, bool, error) {
	if en != nil {
		v := en.Visible(math.MaxUint64, t.id)
		if v == nil {
			return nil, nil, false, nil // deleted
		}
		rw, err := t.e.decode(rt, v.Data())
		return rw, v.Data(), err == nil, err
	}
	if seg, idx, k, ok := t.e.cold.Lookup(r0); ok && k == 0 && !t.killStaged(r0) {
		enc, err := seg.EncodeRowAt(idx, nil)
		if err != nil {
			return nil, nil, false, err
		}
		rw, err := t.e.decode(rt, enc)
		return rw, enc, err == nil, err
	}
	prt := t.e.partByID(r0.Partition())
	data, err := prt.heap.Fetch(r0)
	if err != nil {
		return nil, nil, false, nil // deleted
	}
	rw, err := t.e.decode(rt, data)
	return rw, data, err == nil, err
}

// Update applies mutate to the row with the given primary key. Updates
// of IMRS rows create new versions; updates of page-store rows either
// migrate the row into the IMRS (unique-index access, Section IV) or
// update in place. mutate may change every column but the primary key.
func (t *Txn) Update(table string, pk []row.Value, mutate func(row.Row) (row.Row, error)) (bool, error) {
	rt, err := t.beginWrite(table)
	if err != nil {
		return false, err
	}
	// Not pkKey: the key survives across the user's mutate callback,
	// which may issue reads that would recycle the shared key buffer.
	key := row.EncodeKey(nil, pk...)
	r0, en, found, err := t.locateForWrite(rt, key)
	if err != nil || !found {
		return false, err
	}
	return t.update(rt, r0, en, key, mutate)
}

// UpdateCols updates the row with the given primary key through the
// columns at cols (schema ordinals, strictly ascending, none of the
// primary key): fn gets their current values, read off the locked row
// image, and sets the new ones in place. An IMRS-resident row's new
// version is its old image with the changed columns spliced in
// (row.Image.Splice). A row in the page store or the cold store, or a
// write to an indexed column, takes Update's whole-row path.
func (t *Txn) UpdateCols(table string, pk []row.Value, cols []int, fn func(vals row.Row) error) (bool, error) {
	rt, err := t.beginWrite(table)
	if err != nil {
		return false, err
	}
	indexed, err := rt.setCols(cols)
	if err != nil {
		return false, err
	}
	if cols == nil {
		cols = []int{} // no column, where nil would read as every column
	}
	r0, en, found, err := t.locateForWrite(rt, t.pkKey(pk))
	if err != nil || !found {
		return false, err
	}
	if en == nil || indexed {
		return t.update(rt, r0, en, nil, func(r row.Row) (row.Row, error) {
			vals := make(row.Row, len(cols))
			for j, c := range cols {
				vals[j] = r[c]
			}
			if err := fn(vals); err != nil {
				return nil, err
			}
			for j, c := range cols {
				r[c] = vals[j]
			}
			return r, nil
		})
	}
	cur := en.Visible(math.MaxUint64, t.id)
	if cur == nil {
		return false, nil // deleted
	}
	// The values live in the scratch between updates; while this one
	// runs, an update nested in fn makes its own.
	vals := slices.Grow(t.sc.vals[:0], len(cols))[:len(cols)]
	t.sc.vals = nil
	defer func() {
		if t.sc != nil {
			t.sc.vals = vals
		}
	}()
	im := &t.sc.img
	im.Set(rt.cat.Schema, cur.Data())
	if err := im.Decode(cols, vals); err != nil {
		return false, err
	}
	if err := fn(vals); err != nil {
		return false, err
	}
	im.Set(rt.cat.Schema, cur.Data()) // fn's reads may have moved the image
	delta, size, err := im.AppendDelta(t.encBuf(row.EncodedSize(vals)+2*len(vals)), cols, vals)
	if err != nil {
		return false, err
	}
	if size > maxRowBytes {
		return false, ErrRowTooLarge
	}
	prt := t.e.partByID(r0.Partition())
	if err := t.updateIMRS(rt, prt, r0, en, size, func(dst []byte) []byte {
		out, _ := im.Splice(dst, delta) // AppendDelta wrote it for this image
		return out
	}, delta); err != nil {
		return false, err
	}
	if t.coldLive(r0) {
		t.stageSegKill(rt, r0, true, true)
	}
	return true, nil
}

// setCols checks an UpdateCols column list (in range, strictly
// ascending, no primary-key column) and reports whether a secondary
// index covers any of its columns.
func (rt *tableRT) setCols(cols []int) (indexed bool, err error) {
	last := -1
	for _, c := range cols {
		if c <= last || c >= rt.cat.Schema.NumColumns() {
			return false, fmt.Errorf("core: UpdateCols wants strictly ascending column ordinals, got %v", cols)
		}
		last = c
		if slices.Contains(rt.cat.PKOrds, c) {
			return false, ErrPKChange
		}
		for _, ix := range rt.indexes[1:] {
			indexed = indexed || slices.Contains(ix.def.ColOrds, c)
		}
	}
	return indexed, nil
}

// update writes mutate's version of the located, locked row r0; with
// key set, the new row must keep that primary key.
func (t *Txn) update(rt *tableRT, r0 rid.RID, en *imrs.Entry, key row.Key, mutate func(row.Row) (row.Row, error)) (bool, error) {
	cur, curEnc, ok, err := t.currentImage(rt, r0, en)
	if err != nil || !ok {
		return false, err
	}
	newRow, err := mutate(cur.Clone())
	if err != nil {
		return false, err
	}
	if err := rt.cat.Schema.Validate(newRow); err != nil {
		return false, err
	}
	if key != nil {
		newPK, err := pkOf(rt, newRow)
		if err != nil {
			return false, err
		}
		if !bytes.Equal(newPK, key) {
			return false, ErrPKChange
		}
	}
	encSize := row.EncodedSize(newRow)
	if encSize > maxRowBytes {
		return false, ErrRowTooLarge
	}

	m := t.mark()
	prt := t.e.partByID(r0.Partition())
	// The first dirtying write of a frozen row pulls it out of the cold
	// store: the segment copy is killed at commit and the row's newest
	// image lives in the IMRS (migration) or back in the heap.
	coldRes := t.coldLive(r0)
	frozen := r0 // an un-freeze to the heap may move the row
	switch {
	case en != nil:
		var delta []byte
		if t.deltaBase(en) {
			// The delta is read against the image mutate was given; the
			// read image is free again once mutate has returned.
			im := &t.sc.img
			im.Set(rt.cat.Schema, curEnc)
			delta, _, err = im.AppendDelta(t.encBuf(encSize+2*len(newRow)), nil, newRow)
		}
		if err == nil {
			err = t.updateIMRS(rt, prt, r0, en, encSize, func(dst []byte) []byte {
				return row.AppendEncoded(newRow, dst)
			}, delta)
		}
		if err != nil {
			t.unwind(m)
			return false, err
		}
	default:
		migrated := false
		if prt.ilm.Enabled(ilm.OpMigrate) && t.e.packer.AcceptNewRows() && t.e.imrsAdmission() {
			var err error
			migrated, en, err = t.migrate(rt, prt, r0, newRow, encSize)
			if err != nil {
				t.unwind(m)
				return false, err
			}
		}
		switch {
		case !migrated && coldRes:
			enc := row.AppendEncoded(newRow, t.encBuf(encSize))
			newRID, err := t.unfreezeToHeap(rt, prt, r0, cur, enc)
			if err != nil {
				t.unwind(m)
				return false, err
			}
			r0 = newRID
		case !migrated:
			enc := row.AppendEncoded(newRow, t.encBuf(encSize))
			if err := t.updatePage(rt, prt, r0, curEnc, enc); err != nil {
				t.unwind(m)
				return false, err
			}
		}
	}
	if coldRes {
		// Versioned when the new image is an IMRS version, so older
		// snapshots keep the segment copy; read-committed when it went
		// back to the heap.
		t.stageSegKill(rt, frozen, true, en != nil)
	}
	if err := t.updateSecondaryIndexes(rt, cur, newRow, r0, en); err != nil {
		t.unwind(m)
		return false, err
	}
	return true, nil
}

// updateIMRS pushes en's new version, size bytes that fill writes, and
// logs it. The record is delta, the columns the update changes, when
// sysimrslogs already holds the image the version supersedes (deltaBase);
// otherwise it is the whole new image, and once that publishes the log
// holds the entry's image (Entry.MarkLogged).
func (t *Txn) updateIMRS(rt *tableRT, prt *partRT, r0 rid.RID, en *imrs.Entry, size int, fill func([]byte) []byte, delta []byte) error {
	full := !t.deltaBase(en)
	v, err := t.e.store.AddVersionFunc(en, size, fill, t.id)
	if err == imrs.ErrCacheFull {
		// Committers that never block leave the collector waiting for a
		// CPU: free what it has not reached yet, here, and try once more.
		t.e.gc.Drain()
		v, err = t.e.store.AddVersionFunc(en, size, fill, t.id)
	}
	if err != nil {
		return err // cache absolutely full
	}
	en.MarkDirty()
	old := v.Older()
	t.undo = append(t.undo, func() { t.e.store.AbortVersion(en, v) })
	t.staged = append(t.staged, v)
	rec := wal.Record{Type: wal.RecIMRSDelta, Table: rt.cat.ID, RID: r0, Aux: uint8(en.Origin), After: delta}
	if full {
		rec.Type, rec.After = wal.RecIMRSUpdate, v.Data()
	}
	t.imrsRecs = append(t.imrsRecs, rec)
	if old != nil && old.Committed() {
		t.atCommit = append(t.atCommit, func(uint64) {
			if full {
				en.MarkLogged()
			}
			t.e.gc.RetireVersion(en, v, old)
		})
	}
	en.Touch(t.e.clock.Now())
	prt.ilm.IMRSUpdates.Inc()
	return nil
}

// deltaBase reports whether sysimrslogs holds the image an update of
// en supersedes, so the update may log a delta: the entry's newest
// committed image (Entry.Logged), or this transaction's own version of
// it, whose record precedes the update's in the transaction.
func (t *Txn) deltaBase(en *imrs.Entry) bool {
	h := en.Head()
	return en.Logged() || h.TxnID == t.id && !h.Committed()
}

// migrate moves a page-store row into the IMRS as part of an update
// (origin "migrated"). The page-store image stays behind (stale) and is
// refreshed when the row is eventually packed.
func (t *Txn) migrate(rt *tableRT, prt *partRT, r0 rid.RID, rw row.Row, encSize int) (bool, *imrs.Entry, error) {
	en, err := t.newEntry(r0, prt.cat.ID, imrs.OriginMigrated, rw, encSize)
	if err != nil {
		return false, nil, nil // cache full: fall back to in-place update
	}
	en.MarkDirty()
	v := en.Head()
	if !t.e.rmap.Put(r0, en) {
		t.e.store.AbortVersion(en, v)
		return false, nil, nil
	}
	t.undo = append(t.undo, func() {
		if !t.e.store.AbortVersion(en, v) {
			en.MarkPacked()
			t.e.rmap.Delete(r0, en)
		}
	})
	t.staged = append(t.staged, v)
	t.newEntries = append(t.newEntries, en)
	t.imrsRecs = append(t.imrsRecs, wal.Record{
		Type: wal.RecIMRSInsert, Table: rt.cat.ID, RID: r0,
		Aux: uint8(imrs.OriginMigrated), After: v.Data(),
	})
	// Hash fast-path entries for the migrated row (rw is the new image
	// the version holds; no re-decode needed).
	for _, ix := range rt.indexes {
		if ix.hash == nil {
			continue
		}
		if k, err := indexKey(ix, rw, r0); err == nil {
			ix.hash.Put(k, en)
			t.undo = append(t.undo, func() { ix.hash.Delete(k, en) })
		}
	}
	prt.ilm.PageOps.Inc()
	prt.ilm.Migrations.Inc()
	prt.ilm.NewRows.Inc()
	return true, en, nil
}

func (t *Txn) updatePage(rt *tableRT, prt *partRT, r0 rid.RID, before, after []byte) error {
	beforeCp := append([]byte(nil), before...)
	if err := prt.heap.Update(r0, after); err != nil {
		return err
	}
	t.undo = append(t.undo, func() { _ = prt.heap.Update(r0, beforeCp) })
	t.sysRecs = append(t.sysRecs, wal.Record{
		Type: wal.RecHeapUpdate, Table: rt.cat.ID, RID: r0,
		Before: beforeCp, After: after,
	})
	prt.ilm.PageOps.Inc()
	prt.ilm.PageReuseOps.Inc()
	return nil
}

// stageSegKill logs and (at commit) applies the kill of r's live cold
// copy. unfreeze marks the kill as a row pulled back by a write (the
// stat the ILM report surfaces) rather than a delete; versioned is the
// kind of kill (colseg.Store.Kill).
func (t *Txn) stageSegKill(rt *tableRT, r rid.RID, unfreeze, versioned bool) {
	t.sysRecs = append(t.sysRecs, wal.Record{
		Type: wal.RecSegKill, Table: rt.cat.ID, RID: r,
	})
	t.atCommit = append(t.atCommit, func(ts uint64) {
		t.e.cold.Kill(r, ts, versioned)
		if unfreeze {
			t.e.unfreezes.Add(1)
		}
	})
}

// coldLive reports whether r has a live cold-segment copy that is
// still the row's newest image to this transaction: it is not once the
// transaction has staged the copy's kill (killStaged).
func (t *Txn) coldLive(r rid.RID) bool {
	_, _, k, ok := t.e.cold.Lookup(r)
	return ok && k == 0 && !t.killStaged(r)
}

// killStaged reports whether this transaction has already staged the
// kill of r's cold copy: an earlier write of the row in it pulled the
// row out of the cold store, so the copy, live until commit, is no
// longer its image, and a second write must not kill it again.
func (t *Txn) killStaged(r rid.RID) bool {
	for i := range t.sysRecs {
		if t.sysRecs[i].Type == wal.RecSegKill && t.sysRecs[i].RID == r {
			return true
		}
	}
	return false
}

// unfreezeToHeap moves a frozen row back to the page store when the IMRS
// cannot take it (migration gated off or cache full), writing enc — the
// row's NEW image — to the heap. A physical RID reclaims its old slot
// when still free; otherwise (and for virtual RIDs) the row gets a fresh
// heap location and every index entry is repointed. Returns the RID the
// row now lives at.
func (t *Txn) unfreezeToHeap(rt *tableRT, prt *partRT, r0 rid.RID, cur row.Row, enc []byte) (rid.RID, error) {
	if !r0.IsVirtual() {
		if err := prt.heap.InsertAt(r0, enc); err == nil {
			t.undo = append(t.undo, func() { _ = prt.heap.Delete(r0) })
			t.sysRecs = append(t.sysRecs, wal.Record{
				Type: wal.RecHeapInsert, Table: rt.cat.ID, RID: r0, After: enc,
			})
			prt.ilm.PageOps.Inc()
			return r0, nil
		}
		// Slot occupied: either reused by an unrelated insert, or a stale
		// pre-freeze copy whose post-freeze delete failed. Overwrite only
		// the latter (same row, shadowed by the cold copy until now).
		if stale, err := prt.heap.Fetch(r0); err == nil {
			if srw, err := t.e.decode(rt, stale); err == nil {
				if sk, err1 := pkOf(rt, srw); err1 == nil {
					if ck, err2 := pkOf(rt, cur); err2 == nil && bytes.Equal(sk, ck) {
						if err := t.updatePage(rt, prt, r0, stale, enc); err != nil {
							return rid.Zero, err
						}
						return r0, nil
					}
				}
			}
		}
	}
	newRID, err := prt.heap.Insert(enc)
	if err != nil {
		return rid.Zero, err
	}
	if err := t.lock(newRID); err != nil {
		_ = prt.heap.Delete(newRID)
		return rid.Zero, err
	}
	t.undo = append(t.undo, func() { _ = prt.heap.Delete(newRID) })
	t.sysRecs = append(t.sysRecs, wal.Record{
		Type: wal.RecHeapInsert, Table: rt.cat.ID, RID: newRID, After: enc,
	})
	// Repoint every index entry from the dead cold RID to the heap one,
	// keyed by the row's CURRENT image (key changes are layered on by
	// updateSecondaryIndexes afterwards, against newRID).
	for _, ix := range rt.indexes {
		oldK, err := indexKey(ix, cur, r0)
		if err != nil {
			return rid.Zero, err
		}
		if ix.def.Unique {
			if _, err := ix.tree.Update(oldK, newRID); err != nil {
				return rid.Zero, err
			}
			t.undo = append(t.undo, func() { _, _ = ix.tree.Update(oldK, r0) })
		} else {
			newK, err := indexKey(ix, cur, newRID)
			if err != nil {
				return rid.Zero, err
			}
			if _, _, err := ix.tree.Delete(oldK); err != nil {
				return rid.Zero, err
			}
			t.undo = append(t.undo, func() { _ = ix.tree.Insert(oldK, r0) })
			if err := ix.tree.Insert(newK, newRID); err != nil {
				return rid.Zero, err
			}
			t.undo = append(t.undo, func() { _, _, _ = ix.tree.Delete(newK) })
		}
	}
	prt.ilm.PageOps.Inc()
	return newRID, nil
}

// updateSecondaryIndexes maintains non-PK indexes across a key change:
// the new key is inserted now (readers filter by visibility) and the old
// key is removed once the change commits.
func (t *Txn) updateSecondaryIndexes(rt *tableRT, oldRow, newRow row.Row, r0 rid.RID, en *imrs.Entry) error {
	for _, ix := range rt.indexes[1:] {
		oldK, err := indexKey(ix, oldRow, r0)
		if err != nil {
			return err
		}
		newK, err := indexKey(ix, newRow, r0)
		if err != nil {
			return err
		}
		if bytes.Equal(oldK, newK) {
			continue
		}
		if err := ix.tree.Insert(newK, r0); err != nil {
			if errors.Is(err, btree.ErrDuplicate) {
				return ErrDuplicateKey
			}
			return err
		}
		t.undo = append(t.undo, func() { _, _, _ = ix.tree.Delete(newK) })
		t.atCommit = append(t.atCommit, func(uint64) { _, _, _ = ix.tree.Delete(oldK) })
		if ix.hash != nil && en != nil {
			ix.hash.Put(newK, en)
			t.undo = append(t.undo, func() { ix.hash.Delete(newK, en) })
			t.atCommit = append(t.atCommit, func(uint64) { ix.hash.Delete(oldK, en) })
		}
	}
	return nil
}

// Delete removes the row with the given primary key.
func (t *Txn) Delete(table string, pk []row.Value) (bool, error) {
	rt, err := t.beginWrite(table)
	if err != nil {
		return false, err
	}
	key := t.pkKey(pk)
	r0, en, found, err := t.locateForWrite(rt, key)
	if err != nil || !found {
		return false, err
	}
	cur, curEnc, ok, err := t.currentImage(rt, r0, en)
	if err != nil || !ok {
		return false, err
	}
	m := t.mark()
	prt := t.e.partByID(r0.Partition())
	coldRes := t.coldLive(r0)

	if en != nil {
		tomb := t.e.store.AddTombstone(en, t.id)
		t.undo = append(t.undo, func() { t.e.store.AbortVersion(en, tomb) })
		t.staged = append(t.staged, tomb)
		t.imrsRecs = append(t.imrsRecs, wal.Record{
			Type: wal.RecIMRSDelete, Table: rt.cat.ID, RID: r0, Aux: uint8(en.Origin),
		})
		if !r0.IsVirtual() {
			// The page store holds a (possibly stale) copy: log and apply
			// its deletion at commit.
			pageImg, err := prt.heap.Fetch(r0)
			if err == nil {
				t.sysRecs = append(t.sysRecs, wal.Record{
					Type: wal.RecHeapDelete, Table: rt.cat.ID, RID: r0, Before: pageImg,
				})
				t.atCommit = append(t.atCommit, func(uint64) { _ = prt.heap.Delete(r0) })
			}
		}
		t.atCommit = append(t.atCommit, func(uint64) {
			en.MarkPacked()
			t.e.gc.RetireEntry(en)
		})
		if coldRes {
			t.stageSegKill(rt, r0, false, false)
		}
		prt.ilm.IMRSDeletes.Inc()
	} else if coldRes {
		// Frozen row: killing the segment copy IS the delete. A stale
		// heap copy (failed post-freeze drop) goes too, if it is still
		// this row.
		t.stageSegKill(rt, r0, false, false)
		if !r0.IsVirtual() {
			if stale, err := prt.heap.Fetch(r0); err == nil {
				if srw, err := t.e.decode(rt, stale); err == nil {
					if sk, err := pkOf(rt, srw); err == nil && bytes.Equal(sk, key) {
						t.sysRecs = append(t.sysRecs, wal.Record{
							Type: wal.RecHeapDelete, Table: rt.cat.ID, RID: r0, Before: stale,
						})
						t.atCommit = append(t.atCommit, func(uint64) { _ = prt.heap.Delete(r0) })
					}
				}
			}
		}
		prt.ilm.PageOps.Inc()
	} else {
		// Free the slot at COMMIT, like the other delete paths — never
		// before the outcome is known. An eager delete hands the slot to
		// the free pool while this transaction can still abort: a
		// concurrent insert may take it, after which the abort's restore
		// has nowhere to put the committed row back (it is silently
		// lost behind a live index entry), and even on commit the two
		// transactions' records reach the log in insert-before-delete
		// order — inverted against the actual slot history, so replay
		// deletes the surviving row. Holding the slot until commit keeps
		// log order equal to application order.
		beforeCp := append([]byte(nil), curEnc...)
		t.sysRecs = append(t.sysRecs, wal.Record{
			Type: wal.RecHeapDelete, Table: rt.cat.ID, RID: r0, Before: beforeCp,
		})
		t.atCommit = append(t.atCommit, func(uint64) { _ = prt.heap.Delete(r0) })
		prt.ilm.PageOps.Inc()
		prt.ilm.PageReuseOps.Inc()
	}

	// Index entries disappear when the delete commits; until then other
	// transactions block on the row lock and re-check.
	if err := t.removeIndexEntriesAtCommit(rt, cur, r0, en); err != nil {
		t.unwind(m)
		return false, err
	}
	return true, nil
}

func (t *Txn) removeIndexEntriesAtCommit(rt *tableRT, rw row.Row, r0 rid.RID, en *imrs.Entry) error {
	for _, ix := range rt.indexes {
		k, err := indexKey(ix, rw, r0)
		if err != nil {
			return err
		}
		t.atCommit = append(t.atCommit, func(uint64) { _, _, _ = ix.tree.Delete(k) })
		if ix.hash != nil && en != nil {
			t.atCommit = append(t.atCommit, func(uint64) { ix.hash.Delete(k, en) })
		}
	}
	return nil
}
