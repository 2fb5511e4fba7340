package core

import (
	"bytes"
	"fmt"

	"repro/internal/rid"
	"repro/internal/row"
	"repro/internal/storage/colseg"
)

// ScanTable is ScanBatches over all columns, row by row: each batch row
// is copied out into a fresh row.Row (Vec.Value takes strings and bytes
// out of the batch arena and the segment blob), so fn may keep what it
// is given. Order is unspecified. fn returns false to stop.
func (t *Txn) ScanTable(table string, fn func(row.Row) bool) error {
	return t.ScanBatches(table, nil, 0, func(b *colseg.Batch) bool {
		for i := 0; i < b.Len(); i++ {
			rw := make(row.Row, len(b.Cols))
			for j := range b.Cols {
				rw[j] = b.Cols[j].Value(i)
			}
			if !fn(rw) {
				return false
			}
		}
		return true
	})
}

func (rt *tableRT) findIndex(name string) *indexRT {
	for _, ix := range rt.indexes {
		if ix.def.Name == name {
			return ix
		}
	}
	return nil
}

// index returns the runtime of a table and one of its indexes.
func (t *Txn) index(table, index string) (*tableRT, *indexRT, error) {
	if t.done {
		return nil, nil, ErrTxnDone
	}
	rt, err := t.e.table(table)
	if err != nil {
		return nil, nil, err
	}
	ix := rt.findIndex(index)
	if ix == nil {
		return nil, nil, fmt.Errorf("core: no index %q on table %q", index, table)
	}
	return rt, ix, nil
}

// IndexScan visits rows in key order starting at the encoded values of
// `from` (inclusive) under the named index, until fn returns false.
// Each row is a fresh copy that fn may keep. RIDs resolve transparently
// through the RID map; rows whose visible image no longer matches its
// index position are skipped.
func (t *Txn) IndexScan(table, index string, from []row.Value, fn func(row.Row) bool) error {
	rt, ix, err := t.index(table, index)
	if err != nil {
		return err
	}
	// Rows are resolved directly inside the scan callback: ScanFrom
	// latch-couples leaf to leaf and holds NO latch while yielding, so
	// row-lock acquisition here cannot deadlock against index writers.
	start := row.EncodeKey(nil, from...)
	var ierr error
	if err := ix.tree.ScanFrom(start, func(k []byte, r rid.RID) bool {
		ok, _, err := t.readRowAt(rt, r, nil, false)
		if err != nil {
			ierr = err
			return false
		}
		if !ok {
			return true
		}
		rw := make(row.Row, rt.cat.Schema.NumColumns())
		if err := t.sc.img.Decode(nil, rw); err != nil {
			ierr = err
			return false
		}
		return fn(rw)
	}); err != nil {
		return err
	}
	return ierr
}

// LookupAll returns every visible row whose index columns equal vals
// under the named index (prefix equality; useful for non-unique
// indexes like customer-by-last-name): LookupCols over every column,
// each row copied out into one growing array.
func (t *Txn) LookupAll(table, index string, vals []row.Value) ([]row.Row, error) {
	var out []row.Row
	var a row.Arena
	err := t.LookupCols(table, index, vals, nil, func(r row.Row) bool {
		out = append(out, a.Copy(r))
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LookupCols streams every visible row whose index columns equal vals
// under the named index (prefix equality) to fn, decoded to the columns
// at cols (schema ordinals in output order; nil: every column), until
// fn returns false. The row fn is given is reused for the next one; its
// values are copies that fn may keep (strings never alias engine
// memory), and only the returned string and bytes payloads are copied,
// so an int-only projection allocates nothing per row. fn runs inside
// the index scan, which holds no latch while it yields.
func (t *Txn) LookupCols(table, index string, vals []row.Value, cols []int, fn func(row.Row) bool) error {
	rt, ix, err := t.index(table, index)
	if err != nil {
		return err
	}
	width := len(cols)
	if cols == nil {
		width = rt.cat.Schema.NumColumns()
	}
	out := make(row.Row, width)
	// The prefix lives in the scratch between lookups; while this one
	// runs, a lookup nested in fn makes its own.
	prefix := row.EncodeKey(t.sc.prefix[:0], vals...)
	t.sc.prefix = nil
	defer func() {
		if t.sc != nil {
			t.sc.prefix = prefix
		}
	}()
	var ierr error
	// Resolve rows in-line: the scan yields without holding any latch.
	if err := ix.tree.ScanPrefix(prefix, func(k []byte, r rid.RID) bool {
		ok, _, err := t.readRowAt(rt, r, nil, false)
		if err == nil && ok {
			ok, err = t.decodeMatch(ix, prefix, cols, out)
		}
		if err != nil {
			ierr = err
			return false
		}
		return !ok || fn(out)
	}); err != nil {
		return err
	}
	return ierr
}

// decodeMatch decodes the row in t.sc.img to the columns at cols into
// out if its key under ix still carries prefix: index entries for
// uncommitted key changes are filtered here. A projection reads the key
// off the image before it decodes; a whole row is decoded in one pass
// and its key read off the values.
func (t *Txn) decodeMatch(ix *indexRT, prefix row.Key, cols []int, out row.Row) (bool, error) {
	im := &t.sc.img
	var vk row.Key
	var err error
	if cols == nil {
		if err := im.Decode(nil, out); err != nil {
			return false, err
		}
		vk, err = row.AppendKeyOf(t.sc.vkey[:0], out, ix.def.ColOrds)
	} else {
		vk, err = im.AppendKey(t.sc.vkey[:0], ix.def.ColOrds)
	}
	if err != nil {
		return false, err
	}
	t.sc.vkey = vk
	// The RID suffix of a non-unique key lies past any prefix of its
	// columns.
	if !bytes.HasPrefix(vk, prefix) {
		return false, nil
	}
	if cols == nil {
		return true, nil
	}
	return true, im.Decode(cols, out)
}
