package sql

import (
	"errors"

	"repro/btrim"
	"repro/internal/catalog"
)

// Txn is the transaction surface the executor needs; *btrim.Tx
// satisfies it directly. It is an interface so that the statement
// deadline, tests and the benchmark can wrap a transaction.
type Txn interface {
	Insert(table string, r btrim.Row) error
	Get(table string, pk ...btrim.Value) (btrim.Row, bool, error)
	Update(table string, pk []btrim.Value, mutate func(btrim.Row) (btrim.Row, error)) (bool, error)
	Set(table string, pk []btrim.Value, newRow btrim.Row) (bool, error)
	Delete(table string, pk ...btrim.Value) (bool, error)
	Scan(table string, fn func(btrim.Row) bool) error
	ScanBatches(table string, cols []string, batchRows int, fn func(*btrim.Batch) bool) error
	// LookupAll returns the rows whose index columns equal vals
	// (prefix-match when fewer values than index columns). The planner
	// routes index-equality and IN predicates here instead of scanning.
	LookupAll(table, index string, vals ...btrim.Value) ([]btrim.Row, error)
	Commit() error
	Abort()
}

// projector is the projected read surface of *btrim.Tx: reads that
// decode only the columns they return. The executor reads through it
// when the Txn has it; a decorator that implements only Txn is read
// through Get and LookupAll instead, with the projection done here.
type projector interface {
	GetCols(table string, pk []btrim.Value, cols []int, dst btrim.Row) (bool, error)
	LookupCols(table, index string, vals []btrim.Value, cols []int, fn func(btrim.Row) bool) error
}

// updater is the column update of *btrim.Tx. The executor updates
// through it when the Txn has it; a decorator that implements only Txn
// is updated through Update instead.
type updater interface {
	UpdateCols(table string, pk []btrim.Value, cols []int, fn func(btrim.Row) error) (bool, error)
}

// updateCols updates the row with primary key pk through the columns
// at cols (see btrim.Tx.UpdateCols).
func updateCols(tx Txn, table string, pk []btrim.Value, cols []int, fn func(btrim.Row) error) (bool, error) {
	if u, ok := tx.(updater); ok {
		return u.UpdateCols(table, pk, cols, fn)
	}
	return tx.Update(table, pk, func(r btrim.Row) (btrim.Row, error) {
		vals := make(btrim.Row, len(cols))
		for j, o := range cols {
			vals[j] = r[o]
		}
		err := fn(vals)
		for j, o := range cols {
			r[o] = vals[j]
		}
		return r, err
	})
}

// getCols reads the columns at cols of the row with primary key pk into
// dst (see btrim.Tx.GetCols).
func getCols(tx Txn, table string, pk []btrim.Value, cols []int, dst btrim.Row) (bool, error) {
	if p, ok := tx.(projector); ok {
		return p.GetCols(table, pk, cols, dst)
	}
	r, ok, err := tx.Get(table, pk...)
	if err != nil || !ok {
		return false, err
	}
	for j, o := range cols {
		dst[j] = r[o]
	}
	return true, nil
}

// lookupCols streams the index matches of vals, decoded to the columns
// at cols, to fn until fn returns false (see btrim.Tx.LookupCols).
func lookupCols(tx Txn, table, index string, vals []btrim.Value, cols []int, fn func(btrim.Row) bool) error {
	if p, ok := tx.(projector); ok {
		return p.LookupCols(table, index, vals, cols, fn)
	}
	rows, err := tx.LookupAll(table, index, vals...)
	if err != nil && !errors.Is(err, btrim.ErrPartialResult) {
		return err
	}
	dst := make(btrim.Row, len(cols))
	for _, r := range rows {
		for j, o := range cols {
			dst[j] = r[o]
		}
		if !fn(dst) {
			break
		}
	}
	return err
}

// Engine is the database a session executes against: a *btrim.DB behind
// Wrap, or a decorator around one.
type Engine interface {
	CreateTable(spec btrim.TableSpec) error
	DropTable(name string) error
	Begin() Txn
	// Catalog returns the live schema catalog; the planner resolves every
	// statement against it, never against a cached copy, so tables created
	// by other sessions are visible immediately.
	Catalog() *catalog.Catalog
}

type engine struct{ db *btrim.DB }

// Wrap adapts a database to the executor's Engine interface.
func Wrap(db *btrim.DB) Engine { return engine{db} }

// WrapSharded is the former name of Wrap, which bench/ still spells.
// Delete with the next benchmark issue.
func WrapSharded(db *btrim.DB) Engine { return Wrap(db) }

func (e engine) CreateTable(spec btrim.TableSpec) error { return e.db.CreateTable(spec) }
func (e engine) DropTable(name string) error            { return e.db.DropTable(name) }
func (e engine) Begin() Txn                             { return e.db.Begin() }

// Catalog returns shard 0's catalog: DDL applies to every shard, so any
// shard's catalog describes the node.
func (e engine) Catalog() *catalog.Catalog { return e.db.Node().Engine(0).Catalog() }
