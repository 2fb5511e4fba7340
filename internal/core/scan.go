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

// IndexScan visits rows in key order starting at the encoded values of
// `from` (inclusive) under the named index, until fn returns false.
// RIDs resolve transparently through the RID map; rows whose visible
// image no longer matches its index position are skipped.
func (t *Txn) IndexScan(table, index string, from []row.Value, fn func(row.Row) bool) error {
	if t.done {
		return ErrTxnDone
	}
	rt, err := t.e.table(table)
	if err != nil {
		return err
	}
	ix := rt.findIndex(index)
	if ix == nil {
		return fmt.Errorf("core: no index %q on table %q", index, table)
	}

	// Rows are resolved directly inside the scan callback: ScanFrom
	// latch-couples leaf to leaf and holds NO latch while yielding, so
	// row-lock acquisition here cannot deadlock against index writers.
	start := row.EncodeKey(nil, from...)
	var ierr error
	if err := ix.tree.ScanFrom(start, func(k []byte, r rid.RID) bool {
		rw, ok, _, err := t.readRowAt(rt, r, nil, false)
		if err != nil {
			ierr = err
			return false
		}
		if !ok {
			return true
		}
		return fn(rw)
	}); err != nil {
		return err
	}
	return ierr
}

// LookupAll returns every visible row whose index columns equal vals
// under the named index (prefix equality; useful for non-unique
// indexes like customer-by-last-name).
func (t *Txn) LookupAll(table, index string, vals []row.Value) ([]row.Row, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	rt, err := t.e.table(table)
	if err != nil {
		return nil, err
	}
	ix := rt.findIndex(index)
	if ix == nil {
		return nil, fmt.Errorf("core: no index %q on table %q", index, table)
	}
	prefix := row.EncodeKey(nil, vals...)
	var out []row.Row
	var vk row.Key // the visible image's key, one buffer for every row
	var ierr error
	// Resolve rows in-line: the scan yields without holding any latch.
	if err := ix.tree.ScanPrefix(prefix, func(k []byte, r rid.RID) bool {
		rw, ok, _, err := t.readRowAt(rt, r, nil, false)
		if err != nil {
			ierr = err
			return false
		}
		if !ok {
			return true
		}
		// Re-verify against the visible image: index entries for
		// uncommitted key changes are filtered here. The RID suffix of a
		// non-unique key lies past any prefix of its columns.
		vk, err = row.AppendKeyOf(vk[:0], rw, ix.def.ColOrds)
		if err != nil {
			ierr = err
			return false
		}
		if bytes.HasPrefix(vk, prefix) {
			out = append(out, rw)
		}
		return true
	}); err != nil {
		return nil, err
	}
	if ierr != nil {
		return nil, ierr
	}
	return out, nil
}
