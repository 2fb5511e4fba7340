package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"repro/btrim"
	"repro/internal/imrs"
	"repro/internal/index/btree"
	"repro/internal/index/hash"
	"repro/internal/rid"
	"repro/internal/ridmap"
	"repro/internal/row"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/storage/buffer"
	"repro/internal/storage/colseg"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Probes call one layer's exported functions directly, a fixed number of
// times from one goroutine, on data shaped like the workloads'. They
// price a layer in isolation: a change inside the layer moves its probe
// even when the end-to-end effect drowns in noise, and a probe that did
// not move says the end-to-end change came from elsewhere.

// perOp times n calls of f and returns nanoseconds per call.
func perOp(n int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// sink keeps probe results alive so the calls are not optimised away.
var sink any

func runProbes(m map[string]float64, smoke bool) error {
	n := 200_000
	if smoke {
		n = 2_000
	}
	rng := newRNG(1, 900)

	// txn: an uncontended row lock round trip, a snapshot registration.
	lm := txn.NewLockManager(time.Second)
	m["txn.lock_unlock_ns_op"] = perOp(n, func(i int) {
		r := rid.NewVirtual(1, uint64(i%4096))
		if err := lm.Lock(1, r); err != nil {
			panic(err) // uncontended: a failure is a bug in the lock manager
		}
		lm.Unlock(1, r)
	})
	snaps := txn.NewSnapshotRegistry()
	m["txn.snapshot_reg_ns_op"] = perOp(n, func(i int) { snaps.Unregister(snaps.Register(uint64(i))) })

	// index.btree: n 24-byte keys in a pool that holds the whole tree.
	dev := &memDevice{}
	pool, err := buffer.NewPool(dev, 16384, nil)
	if err != nil {
		return err
	}
	tree, err := btree.New(pool)
	if err != nil {
		return err
	}
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = row.EncodeKey(nil, row.Int64(int64(rng.Intn(1000))), row.Int64(int64(i)), row.Int64(int64(rng.Intn(1<<30))))[:24]
	}
	var berr error
	m["index.btree.insert_ns_op"] = perOp(n, func(i int) {
		if err := tree.Insert(keys[i], rid.NewVirtual(1, uint64(i))); err != nil {
			berr = err
		}
	})
	m["index.btree.search_ns_op"] = perOp(n, func(i int) {
		if _, ok, err := tree.Search(keys[(i*7919)%n]); err != nil || !ok {
			berr = fmt.Errorf("btree search: found=%v err=%v", ok, err)
		}
	})
	if berr != nil {
		return berr
	}

	// storage.buffer: fetch + unpin of a resident page.
	resident := min(int(dev.NumPages()), 64)
	m["storage.buffer.fetch_hit_ns_op"] = perOp(n, func(i int) {
		f, err := pool.Fetch(uint32(i % resident))
		if err != nil {
			berr = err
			return
		}
		pool.Unpin(f, false)
	})
	if berr != nil {
		return berr
	}

	// index.hash, ridmap: point lookups over n resident entries.
	hx := hash.New(1 << 12)
	rm := ridmap.New()
	entries := make([]*imrs.Entry, n)
	for i := range entries {
		entries[i] = &imrs.Entry{RID: rid.NewVirtual(1, uint64(i)), Part: 1}
		hx.Put(keys[i], entries[i])
		rm.Put(entries[i].RID, entries[i])
	}
	m["index.hash.get_ns_op"] = perOp(n, func(i int) { sink = hx.Get(keys[(i*7919)%n]) })
	m["ridmap.get_ns_op"] = perOp(n, func(i int) { sink = rm.Get(entries[(i*7919)%n].RID) })

	// row: an order_line-shaped row through the codec.
	olSpec := tpccTables[6]
	cols := make([]row.Column, len(olSpec.Columns))
	for i, c := range olSpec.Columns {
		cols[i] = row.Column{Name: c.Name, Kind: row.Kind(c.Type)}
	}
	schema, err := row.NewSchema(cols...)
	if err != nil {
		return err
	}
	ol := row.Row{row.Int64(1), row.Int64(7), row.Int64(3001), row.Int64(4), row.Int64(4711), row.Int64(1),
		row.Int64(0), row.Int64(5), row.Float64(1234), row.String(randString(rng, 24, 24))}
	var enc []byte
	m["row.encode_ns_op"] = perOp(n, func(int) {
		if enc, err = row.Encode(schema, ol, enc[:0]); err != nil {
			berr = err
		}
	})
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	m["row.decode_ns_op"] = perOp(n, func(int) {
		if sink, err = row.Decode(schema, enc); err != nil {
			berr = err
		}
	})
	runtime.ReadMemStats(&ms1)
	m["row.decode_allocs_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	if berr != nil {
		return berr
	}

	// imrs: fragment allocate + free of that row image.
	alloc := imrs.NewAllocator(64 << 20)
	m["imrs.alloc_free_ns_op"] = perOp(n, func(int) {
		f, err := alloc.Alloc(enc)
		if err != nil {
			berr = err
			return
		}
		alloc.Free(f)
	})

	// wal: append of an IMRS insert record carrying that image.
	log, err := wal.NewLog(wal.NewMemBackend())
	if err != nil {
		return err
	}
	rec := wal.Record{Type: wal.RecIMRSInsert, TxnID: 1, Table: 7, RID: rid.NewVirtual(1, 1), After: enc}
	m["wal.append_ns_op"] = perOp(n, func(int) {
		if _, err := log.Append(&rec); err != nil {
			berr = err
		}
	})
	if berr != nil {
		return berr
	}

	// storage.colseg: decode every column of a full segment of such rows.
	wr := colseg.NewWriter(7, 1, schema, false)
	segRows := colseg.DefaultSegmentRows
	for i := 0; i < segRows; i++ {
		ol[2], ol[3], ol[4] = row.Int64(int64(3000+i/10)), row.Int64(int64(i%10+1)), row.Int64(int64(rng.Intn(5000)))
		if enc, err = row.Encode(schema, ol, enc[:0]); err != nil {
			return err
		}
		if err := wr.Add(rid.NewVirtual(1, uint64(i+1)), enc); err != nil {
			return err
		}
	}
	blob, err := wr.Finish(nil)
	if err != nil {
		return err
	}
	seg, err := colseg.Open(blob)
	if err != nil {
		return err
	}
	reps := 1 + n/segRows/4
	vecs := make([]colseg.Vec, seg.Columns())
	perSeg := perOp(reps, func(int) {
		for ci := range vecs {
			vecs[ci].Reset(seg.ColumnKind(ci))
			if err := seg.AppendColumn(ci, &vecs[ci]); err != nil {
				berr = err
			}
		}
	})
	if berr != nil {
		return berr
	}
	m["storage.colseg.decode_mrows_per_s"] = float64(segRows) / perSeg * 1e3

	return frontEndProbes(m, n/20)
}

// stubEngine answers every row operation from memory without touching
// an engine, so what remains of a statement's cost is sql (and, over
// TCP, server). The catalog is a real one: the planner needs it.
type stubEngine struct {
	sql.Engine
	rows map[string]btrim.Row
}

func (e *stubEngine) Begin() sql.Txn { return stubTxn{e} }

type stubTxn struct{ e *stubEngine }

func (t stubTxn) Insert(string, btrim.Row) error { return nil }
func (t stubTxn) Get(table string, _ ...btrim.Value) (btrim.Row, bool, error) {
	return t.e.rows[table], true, nil
}
func (t stubTxn) Update(table string, _ []btrim.Value, mutate func(btrim.Row) (btrim.Row, error)) (bool, error) {
	_, err := mutate(append(btrim.Row(nil), t.e.rows[table]...))
	return true, err
}
func (t stubTxn) Set(string, []btrim.Value, btrim.Row) (bool, error)               { return true, nil }
func (t stubTxn) Delete(string, ...btrim.Value) (bool, error)                      { return true, nil }
func (t stubTxn) Scan(string, func(btrim.Row) bool) error                          { return nil }
func (t stubTxn) Commit() error                                                    { return nil }
func (t stubTxn) Abort()                                                           {}
func (t stubTxn) ScanBatches(string, []string, int, func(*btrim.Batch) bool) error { return nil }
func (t stubTxn) LookupAll(table, _ string, _ ...btrim.Value) ([]btrim.Row, error) {
	return []btrim.Row{t.e.rows[table]}, nil
}

// frontEndProbes prices one Payment-shaped frame over loopback TCP and
// one prepared / one literal UPDATE on an in-process session, all
// against the stub engine.
func frontEndProbes(m map[string]float64, n int) error {
	st, err := openStack(stackConfig{shards: 1, imrsBytes: 8 << 20, bufferPages: 256}, "", nil)
	if err != nil {
		return err
	}
	defer st.close()
	stub := &stubEngine{Engine: st.eng, rows: map[string]btrim.Row{}}
	for _, spec := range tpccTables {
		if err := st.db.CreateTable(spec); err != nil {
			return err
		}
		r := make(btrim.Row, len(spec.Columns))
		for i, c := range spec.Columns {
			switch c.Type {
			case btrim.Int64Type:
				r[i] = btrim.Int64(1)
			case btrim.Float64Type:
				r[i] = btrim.Float64(1)
			default:
				r[i] = btrim.String("stub")
			}
		}
		stub.rows[spec.Name] = r
	}

	sess := sql.NewSession(stub)
	defer sess.Close()
	const upd = "pay_c_upd"
	var text string
	for _, ps := range tpccStmts {
		if ps.name == upd {
			text = ps.text
		}
	}
	if _, err := sess.Prepare(upd, text); err != nil {
		return err
	}
	args := []btrim.Value{btrim.Float64(10), btrim.Float64(10), btrim.Int64(1), btrim.Int64(2), btrim.Int64(3)}
	var perr error
	m["sql.exec_prepared_ns_stub"] = perOp(n, func(int) {
		if _, err := sess.ExecPrepared(upd, args); err != nil {
			perr = err
		}
	})
	literal := "UPDATE customer SET c_balance = c_balance - 10, c_ytd_payment = c_ytd_payment + 10, c_payment_cnt = c_payment_cnt + 1 WHERE c_w_id = 1 AND c_d_id = 2 AND c_id = 3"
	m["sql.exec_literal_ns_stub"] = perOp(n, func(int) {
		if _, err := sess.Exec(literal); err != nil {
			perr = err
		}
	})
	if perr != nil {
		return perr
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := server.New(stub)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // the probe's own connection is already closed
		<-served
	}()
	in := &tpccInstance{addr: ln.Addr().String()}
	c := &tpccClient{in: in, hseq: 1}
	c.mode.wire = true
	if err := c.start(); err != nil {
		return err
	}
	defer c.close()
	c.p = tpccParams{typ: tpPayment, w: 1, d: 2, c: 3, cw: 1, cd: 2, amount: 10, historyID: 1}
	m["server.frame_rtt_us_stub"] = perOp(n, func(int) {
		if err := c.payment(); err != nil {
			perr = err
		}
	}) / 1e3
	return perr
}
