package sql

import (
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
