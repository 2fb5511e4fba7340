package main

import (
	"sync"
	"sync/atomic"

	"repro/btrim"
	"repro/internal/sql"
)

// tracedEngine is the timing decorator placed between the front end
// (server, sql, or the API closure) and btrim. Everything inside its
// spans is "below the public Tx/STx surface".
//
// With owner set it belongs to one in-process client and hangs its spans
// on that client's transaction tree. Without, it is the shared engine
// under the TCP server, where the calling goroutine is a server session:
// each Begin..Commit becomes its own tree, folded into the tracer's
// engine aggregate.
type tracedEngine struct {
	sql.Engine
	tr    *tracer
	owner *clientTrace

	// scans counts Scan/ScanBatches calls, so the wire workload can show
	// that no statement fell back to a full scan.
	scans *atomic.Int64
}

var txnTracePool = sync.Pool{New: func() any { return new(txnTrace) }}

func (e *tracedEngine) Begin() sql.Txn {
	if e.owner != nil {
		t := &e.owner.t
		i := t.open(spBegin)
		tx := e.Engine.Begin()
		t.close(i)
		return &tracedTxn{Txn: tx, t: t, e: e}
	}
	t := txnTracePool.Get().(*txnTrace)
	t.tr = e.tr
	t.start(spEngineTxn)
	gid := e.tr.bind(t)
	i := t.open(spBegin)
	tx := e.Engine.Begin()
	t.close(i)
	return &tracedTxn{Txn: tx, t: t, e: e, gid: gid}
}

type tracedTxn struct {
	sql.Txn
	t   *txnTrace
	e   *tracedEngine
	gid int64
	fin bool // Commit or Abort already ran: the tree is closed
}

func (x *tracedTxn) Insert(table string, r btrim.Row) error {
	x.t.wrote = true
	i := x.t.open(spInsert)
	err := x.Txn.Insert(table, r)
	x.t.close(i)
	return err
}

func (x *tracedTxn) Get(table string, pk ...btrim.Value) (btrim.Row, bool, error) {
	i := x.t.open(spGet)
	r, ok, err := x.Txn.Get(table, pk...)
	x.t.close(i)
	return r, ok, err
}

func (x *tracedTxn) Update(table string, pk []btrim.Value, mutate func(btrim.Row) (btrim.Row, error)) (bool, error) {
	x.t.wrote = true
	i := x.t.open(spUpdate)
	ok, err := x.Txn.Update(table, pk, mutate)
	x.t.close(i)
	return ok, err
}

func (x *tracedTxn) Set(table string, pk []btrim.Value, newRow btrim.Row) (bool, error) {
	x.t.wrote = true
	i := x.t.open(spUpdate)
	ok, err := x.Txn.Set(table, pk, newRow)
	x.t.close(i)
	return ok, err
}

func (x *tracedTxn) Delete(table string, pk ...btrim.Value) (bool, error) {
	x.t.wrote = true
	i := x.t.open(spDelete)
	ok, err := x.Txn.Delete(table, pk...)
	x.t.close(i)
	return ok, err
}

func (x *tracedTxn) Scan(table string, fn func(btrim.Row) bool) error {
	x.e.scans.Add(1)
	i := x.t.open(spScan)
	err := x.Txn.Scan(table, fn)
	x.t.close(i)
	return err
}

func (x *tracedTxn) ScanBatches(table string, cols []string, batchRows int, fn func(*btrim.Batch) bool) error {
	x.e.scans.Add(1)
	i := x.t.open(spScan)
	err := x.Txn.ScanBatches(table, cols, batchRows, fn)
	x.t.close(i)
	return err
}

func (x *tracedTxn) LookupAll(table, index string, vals ...btrim.Value) ([]btrim.Row, error) {
	i := x.t.open(spLookup)
	rows, err := x.Txn.LookupAll(table, index, vals...)
	x.t.close(i)
	return rows, err
}

func (x *tracedTxn) Commit() error {
	if x.fin {
		return x.Txn.Commit()
	}
	i := x.t.open(spCommit)
	err := x.Txn.Commit()
	x.t.close(i)
	x.done()
	return err
}

func (x *tracedTxn) Abort() {
	if x.fin {
		x.Txn.Abort()
		return
	}
	i := x.t.open(spAbort)
	x.Txn.Abort()
	x.t.close(i)
	x.done()
}

// done ends a tree the shared decorator started; a client-owned tree is
// ended by its client.
func (x *tracedTxn) done() {
	x.fin = true
	if x.e.owner != nil {
		return
	}
	tr := x.e.tr
	tr.unbind(x.gid)
	tr.engMu.Lock()
	x.t.finish(tr.engineAgg)
	tr.engMu.Unlock()
	txnTracePool.Put(x.t)
}
