package sql

import (
	"time"

	"repro/btrim"
)

// deadlineCheckRows bounds how many rows a deadline-armed row scan
// visits between clock checks: cheap enough to be invisible, tight
// enough that a runaway scan stops within a batch of work.
const deadlineCheckRows = 128

// deadlineTxn interposes the session's statement deadline on the
// transaction surface. Point operations check the clock once on entry;
// scans re-check every deadlineCheckRows rows (row form) or every batch
// (vectorized form), so a long scan cannot outrun its deadline by
// orders of magnitude. Once tripped, every later call fails fast with
// ErrDeadlineExceeded — the executor's loops stop at the first error.
// Commit and Abort pass through: ending a transaction must always be
// possible.
type deadlineTxn struct {
	Txn
	deadline time.Time
	now      func() time.Time
	err      error // latched ErrDeadlineExceeded
}

// expired latches and reports deadline expiry.
func (t *deadlineTxn) expired() bool {
	if t.err != nil {
		return true
	}
	if !t.now().Before(t.deadline) {
		t.err = ErrDeadlineExceeded
		return true
	}
	return false
}

func (t *deadlineTxn) Insert(table string, r btrim.Row) error {
	if t.expired() {
		return t.err
	}
	return t.Txn.Insert(table, r)
}

func (t *deadlineTxn) Get(table string, pk ...btrim.Value) (btrim.Row, bool, error) {
	if t.expired() {
		return nil, false, t.err
	}
	return t.Txn.Get(table, pk...)
}

func (t *deadlineTxn) Update(table string, pk []btrim.Value, mutate func(btrim.Row) (btrim.Row, error)) (bool, error) {
	if t.expired() {
		return false, t.err
	}
	return t.Txn.Update(table, pk, mutate)
}

// UpdateCols makes the deadline an updater: the executor's column
// updates pass through it to the wrapped transaction's.
func (t *deadlineTxn) UpdateCols(table string, pk []btrim.Value, cols []int, fn func(btrim.Row) error) (bool, error) {
	if t.expired() {
		return false, t.err
	}
	return updateCols(t.Txn, table, pk, cols, fn)
}

func (t *deadlineTxn) Set(table string, pk []btrim.Value, newRow btrim.Row) (bool, error) {
	if t.expired() {
		return false, t.err
	}
	return t.Txn.Set(table, pk, newRow)
}

func (t *deadlineTxn) Delete(table string, pk ...btrim.Value) (bool, error) {
	if t.expired() {
		return false, t.err
	}
	return t.Txn.Delete(table, pk...)
}

func (t *deadlineTxn) LookupAll(table, index string, vals ...btrim.Value) ([]btrim.Row, error) {
	if t.expired() {
		return nil, t.err
	}
	return t.Txn.LookupAll(table, index, vals...)
}

// GetCols and LookupCols make the deadline a projector: the executor's
// projected reads pass through it to the wrapped transaction's.
func (t *deadlineTxn) GetCols(table string, pk []btrim.Value, cols []int, dst btrim.Row) (bool, error) {
	if t.expired() {
		return false, t.err
	}
	return getCols(t.Txn, table, pk, cols, dst)
}

func (t *deadlineTxn) LookupCols(table, index string, vals []btrim.Value, cols []int, fn func(btrim.Row) bool) error {
	if t.expired() {
		return t.err
	}
	return lookupCols(t.Txn, table, index, vals, cols, fn)
}

func (t *deadlineTxn) Scan(table string, fn func(btrim.Row) bool) error {
	if t.expired() {
		return t.err
	}
	n := 0
	err := t.Txn.Scan(table, func(r btrim.Row) bool {
		n++
		if n%deadlineCheckRows == 0 && t.expired() {
			return false
		}
		return fn(r)
	})
	if t.err != nil {
		return t.err
	}
	return err
}

func (t *deadlineTxn) ScanBatches(table string, cols []string, batchRows int, fn func(*btrim.Batch) bool) error {
	if t.expired() {
		return t.err
	}
	err := t.Txn.ScanBatches(table, cols, batchRows, func(b *btrim.Batch) bool {
		if t.expired() {
			return false
		}
		return fn(b)
	})
	if t.err != nil {
		return t.err
	}
	return err
}
