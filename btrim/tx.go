package btrim

import (
	"errors"

	"repro/internal/core"
	"repro/internal/row"
	"repro/internal/shard"
	"repro/internal/storage/colseg"
	"repro/internal/txn"
)

// Batch is one column batch yielded by ScanBatches: parallel column
// vectors plus the RID of each row. Valid only during the callback.
type Batch = colseg.Batch

// Vec is one column vector of a Batch.
type Vec = colseg.Vec

// Sentinel errors surfaced by transactions.
var (
	// ErrDuplicateKey reports a unique-index violation.
	ErrDuplicateKey = core.ErrDuplicateKey
	// ErrPKChange reports an update that tried to modify primary-key
	// columns.
	ErrPKChange = core.ErrPKChange
	// ErrLockTimeout reports a blocking row-lock acquisition that gave
	// up waiting; the engine aborted the transaction. An expected
	// outcome under contention — retry the whole transaction.
	ErrLockTimeout = txn.ErrLockTimeout
	// ErrTxnRetry reports a transaction the engine aborted to resolve
	// a read-write conflict; retry it against a fresh snapshot.
	ErrTxnRetry = core.ErrRetry
	// ErrShardDown reports an operation routed to a halted shard. The
	// rest of the node keeps serving.
	ErrShardDown = shard.ErrShardDown
	// ErrPartialResult reports a fan-out read that skipped unavailable
	// shards: the returned rows cover every healthy shard, and the error
	// (a *shard.PartialResultError) names the shards that contributed
	// nothing. errors.Is matches it.
	ErrPartialResult = shard.ErrPartialResult
)

// IsDuplicateKey reports whether err is a unique-index violation.
func IsDuplicateKey(err error) bool { return errors.Is(err, core.ErrDuplicateKey) }

// Tx is a transaction. Operations route to a shard by primary key;
// scans and index lookups fan out shard by shard (ordered within a
// shard, not globally). Within a shard, reads see a snapshot of
// IMRS-resident data taken at the transaction's first touch of that
// shard (timestamp-based snapshot isolation, as in the paper) and
// read-committed page-store data; across shards the snapshots are
// independent (read committed). Writes take exclusive row locks held to
// commit.
//
// Every Tx must end in exactly one Commit or Abort: a leaked transaction
// holds its snapshot and blocks checkpoints indefinitely. Prefer
// DB.View/DB.Update, which guarantee completion.
type Tx struct {
	tx *shard.Txn
}

// STx is the former name of Tx, which bench/ still spells. Delete with
// the next benchmark issue.
type STx = Tx

// Insert adds a row, routed by its primary-key columns; the shard's
// engine decides per the ILM rules whether it lives in the IMRS or the
// page store.
func (t *Tx) Insert(table string, r Row) error { return t.tx.Insert(table, r) }

// Get returns the row with the given primary key: GetCols over every
// column into a fresh row.
func (t *Tx) Get(table string, pk ...Value) (Row, bool, error) {
	return t.tx.Get(table, pk)
}

// GetCols reads the columns at cols (schema ordinals in output order;
// nil: every column) of the row with the given primary key into dst,
// which must be as wide, and reports whether the row exists. Only the
// returned string and bytes payloads are copied: reading int columns
// allocates nothing.
func (t *Tx) GetCols(table string, pk []Value, cols []int, dst Row) (bool, error) {
	return t.tx.GetCols(table, pk, cols, dst)
}

// Update applies mutate to the row with the given primary key, returning
// whether the row existed.
func (t *Tx) Update(table string, pk []Value, mutate func(Row) (Row, error)) (bool, error) {
	return t.tx.Update(table, pk, mutate)
}

// UpdateCols updates the row with the given primary key through the
// columns at cols (schema ordinals, strictly ascending, none of the
// primary key), returning whether the row existed: fn gets their
// current values and sets the new ones in place. It costs what it
// changes: an IMRS row's new version is its old image with the changed
// columns spliced in, and its log record carries only those columns.
func (t *Tx) UpdateCols(table string, pk []Value, cols []int, fn func(vals Row) error) (bool, error) {
	return t.tx.UpdateCols(table, pk, cols, fn)
}

// Set replaces the row with the given primary key wholesale.
func (t *Tx) Set(table string, pk []Value, newRow Row) (bool, error) {
	return t.tx.Update(table, pk, func(Row) (Row, error) { return newRow, nil })
}

// Delete removes the row with the given primary key, returning whether
// it existed.
func (t *Tx) Delete(table string, pk ...Value) (bool, error) {
	return t.tx.Delete(table, pk)
}

// Scan is ScanBatches over all columns, row by row: it visits every
// visible row of the table until fn returns false. Each row is a fresh
// copy that fn may keep.
func (t *Tx) Scan(table string, fn func(Row) bool) error {
	return t.tx.ScanTable(table, fn)
}

// ScanBatches is the table scan: it visits every visible row of the
// table, shard by shard, as column batches of up to batchRows rows (0
// picks the engine default, one segment's worth). cols selects and orders the projected columns (nil = all columns in
// schema order); projection is pushed into the cold-store decode, so
// unprojected columns of frozen rows are never decompressed. The batch
// is reused across calls — copy out anything fn keeps. fn returns false
// to stop.
func (t *Tx) ScanBatches(table string, cols []string, batchRows int, fn func(*Batch) bool) error {
	return t.tx.ScanBatches(table, cols, batchRows, fn)
}

// IndexScan visits rows in index-key order starting at from
// (inclusive), shard by shard.
func (t *Tx) IndexScan(table, index string, from []Value, fn func(Row) bool) error {
	return t.tx.IndexScan(table, index, from, fn)
}

// LookupAll returns the rows whose index columns equal vals (prefix
// equality on non-unique indexes), concatenated over shards: it is
// LookupCols over every column, each row copied out. With a shard down
// it returns the healthy shards' rows and ErrPartialResult, unless the
// lookup reads one shard (see LookupCols).
func (t *Tx) LookupAll(table, index string, vals ...Value) ([]Row, error) {
	var out []Row
	var a row.Arena
	err := t.tx.LookupCols(table, index, vals, nil, func(r Row) bool {
		out = append(out, a.Copy(r))
		return true
	})
	if err != nil && !errors.Is(err, ErrPartialResult) {
		return nil, err
	}
	return out, err
}

// LookupCols streams the rows whose index columns equal vals to fn,
// shard by shard, decoded to the columns at cols (schema ordinals in
// output order; nil: every column), until fn returns false. The row fn
// is given is reused for the next one: its values are copies that fn
// may keep, the row itself is not. Only the returned string and bytes
// payloads are copied, so an int-only projection allocates nothing per
// row. fn runs during the index scan, which holds no latch while it
// yields: rows fn itself writes to the scanned index may or may not be
// visited later in the same scan. With a shard down, the healthy
// shards' rows reach fn once each and ErrPartialResult comes back. A
// lookup on an index led by the table's leading primary-key column
// that binds it reads only the shard that value routes to, where every
// match lives: it fails with ErrShardDown if that shard is down, and
// no other shard matters.
func (t *Tx) LookupCols(table, index string, vals []Value, cols []int, fn func(Row) bool) error {
	return t.tx.LookupCols(table, index, vals, cols, fn)
}

// Commit makes the transaction durable and visible: one shard's own
// commit when at most one shard was written, two-phase commit
// otherwise. A nil return means durably committed on every shard
// touched.
func (t *Tx) Commit() error { return t.tx.Commit() }

// Abort rolls the transaction back on every shard it touched.
func (t *Tx) Abort() { t.tx.Abort() }
