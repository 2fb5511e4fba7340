package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"repro/btrim"
	"repro/internal/server"
	"repro/internal/sql"
)

// tpcc_wire: the full five-transaction TPC-C mix as prepared, pipelined
// SQL. Every statement is a primary-key point operation or an equality
// prefix of an index (LookupAll); none falls back to a table scan, which
// the traced run asserts. Money amounts are whole numbers, so float
// sums are exact and the consistency conditions can demand equality.

type tpccScale struct {
	warehouses, districts, customers, items int
	names                                   int // distinct customer last names per district
}

var (
	tpccFull  = tpccScale{warehouses: 2, districts: 10, customers: 300, items: 5000, names: 100}
	tpccSmoke = tpccScale{warehouses: 2, districts: 3, customers: 30, items: 100, names: 10}
)

const (
	tpNewOrder = iota
	tpPayment
	tpOrderStatus
	tpDelivery
	tpStockLevel
)

var tpccTypes = []string{"neworder", "payment", "orderstatus", "delivery", "stocklevel"}

func i64(v int) btrim.Value { return btrim.Int64(int64(v)) }

var tpccTables = []btrim.TableSpec{
	{Name: "warehouse", PrimaryKey: []string{"w_id"}, Columns: []btrim.Column{
		{Name: "w_id", Type: btrim.Int64Type}, {Name: "w_name", Type: btrim.StringType},
		{Name: "w_tax", Type: btrim.Float64Type}, {Name: "w_ytd", Type: btrim.Float64Type}}},
	{Name: "district", PrimaryKey: []string{"d_w_id", "d_id"}, Columns: []btrim.Column{
		{Name: "d_w_id", Type: btrim.Int64Type}, {Name: "d_id", Type: btrim.Int64Type},
		{Name: "d_name", Type: btrim.StringType}, {Name: "d_tax", Type: btrim.Float64Type},
		{Name: "d_ytd", Type: btrim.Float64Type}, {Name: "d_next_o_id", Type: btrim.Int64Type}}},
	{Name: "customer", PrimaryKey: []string{"c_w_id", "c_d_id", "c_id"}, Columns: []btrim.Column{
		{Name: "c_w_id", Type: btrim.Int64Type}, {Name: "c_d_id", Type: btrim.Int64Type},
		{Name: "c_id", Type: btrim.Int64Type}, {Name: "c_first", Type: btrim.StringType},
		{Name: "c_last", Type: btrim.StringType}, {Name: "c_credit", Type: btrim.StringType},
		{Name: "c_discount", Type: btrim.Float64Type}, {Name: "c_balance", Type: btrim.Float64Type},
		{Name: "c_ytd_payment", Type: btrim.Float64Type}, {Name: "c_payment_cnt", Type: btrim.Int64Type},
		{Name: "c_delivery_cnt", Type: btrim.Int64Type}, {Name: "c_data", Type: btrim.StringType}},
		Indexes: []btrim.IndexSpec{{Name: "customer_last", Columns: []string{"c_w_id", "c_d_id", "c_last"}}}},
	{Name: "history", PrimaryKey: []string{"h_id"}, Columns: []btrim.Column{
		{Name: "h_id", Type: btrim.Int64Type}, {Name: "h_c_w_id", Type: btrim.Int64Type},
		{Name: "h_c_d_id", Type: btrim.Int64Type}, {Name: "h_c_id", Type: btrim.Int64Type},
		{Name: "h_w_id", Type: btrim.Int64Type}, {Name: "h_d_id", Type: btrim.Int64Type},
		{Name: "h_date", Type: btrim.Int64Type}, {Name: "h_amount", Type: btrim.Float64Type},
		{Name: "h_data", Type: btrim.StringType}}},
	{Name: "new_orders", PrimaryKey: []string{"no_w_id", "no_d_id", "no_o_id"}, Columns: []btrim.Column{
		{Name: "no_w_id", Type: btrim.Int64Type}, {Name: "no_d_id", Type: btrim.Int64Type},
		{Name: "no_o_id", Type: btrim.Int64Type}}},
	{Name: "orders", PrimaryKey: []string{"o_w_id", "o_d_id", "o_id"}, Columns: []btrim.Column{
		{Name: "o_w_id", Type: btrim.Int64Type}, {Name: "o_d_id", Type: btrim.Int64Type},
		{Name: "o_id", Type: btrim.Int64Type}, {Name: "o_c_id", Type: btrim.Int64Type},
		{Name: "o_entry_d", Type: btrim.Int64Type}, {Name: "o_carrier_id", Type: btrim.Int64Type},
		{Name: "o_ol_cnt", Type: btrim.Int64Type}, {Name: "o_all_local", Type: btrim.Int64Type}},
		Indexes: []btrim.IndexSpec{{Name: "orders_customer", Columns: []string{"o_w_id", "o_d_id", "o_c_id", "o_id"}, Unique: true}}},
	{Name: "order_line", PrimaryKey: []string{"ol_w_id", "ol_d_id", "ol_o_id", "ol_number"}, Columns: []btrim.Column{
		{Name: "ol_w_id", Type: btrim.Int64Type}, {Name: "ol_d_id", Type: btrim.Int64Type},
		{Name: "ol_o_id", Type: btrim.Int64Type}, {Name: "ol_number", Type: btrim.Int64Type},
		{Name: "ol_i_id", Type: btrim.Int64Type}, {Name: "ol_supply_w_id", Type: btrim.Int64Type},
		{Name: "ol_delivery_d", Type: btrim.Int64Type}, {Name: "ol_quantity", Type: btrim.Int64Type},
		{Name: "ol_amount", Type: btrim.Float64Type}, {Name: "ol_dist_info", Type: btrim.StringType}}},
	{Name: "item", PrimaryKey: []string{"i_id"}, Columns: []btrim.Column{
		{Name: "i_id", Type: btrim.Int64Type}, {Name: "i_name", Type: btrim.StringType},
		{Name: "i_price", Type: btrim.Float64Type}, {Name: "i_data", Type: btrim.StringType}}},
	{Name: "stock", PrimaryKey: []string{"s_w_id", "s_i_id"}, Columns: []btrim.Column{
		{Name: "s_w_id", Type: btrim.Int64Type}, {Name: "s_i_id", Type: btrim.Int64Type},
		{Name: "s_quantity", Type: btrim.Int64Type}, {Name: "s_ytd", Type: btrim.Float64Type},
		{Name: "s_order_cnt", Type: btrim.Int64Type}, {Name: "s_remote_cnt", Type: btrim.Int64Type},
		{Name: "s_dist_info", Type: btrim.StringType}, {Name: "s_data", Type: btrim.StringType}}},
}

// tpccStmts are prepared once per connection; transactions then travel
// as typed binds.
var tpccStmts = []struct{ name, text string }{
	{"no_d_upd", "UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = ? AND d_id = ?"},
	{"no_d_sel", "SELECT d_next_o_id, d_tax FROM district WHERE d_w_id = ? AND d_id = ?"},
	{"no_w_sel", "SELECT w_tax FROM warehouse WHERE w_id = ?"},
	{"no_c_sel", "SELECT c_discount, c_last, c_credit FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?"},
	{"no_i_sel", "SELECT i_price, i_name, i_data FROM item WHERE i_id = ?"},
	{"no_s_sel", "SELECT s_quantity, s_dist_info, s_data FROM stock WHERE s_w_id = ? AND s_i_id = ?"},
	{"no_o_ins", "INSERT INTO orders VALUES (?, ?, ?, ?, ?, ?, ?, ?)"},
	{"no_no_ins", "INSERT INTO new_orders VALUES (?, ?, ?)"},
	{"no_s_upd", "UPDATE stock SET s_quantity = ?, s_ytd = s_ytd + ?, s_order_cnt = s_order_cnt + 1, s_remote_cnt = s_remote_cnt + ? WHERE s_w_id = ? AND s_i_id = ?"},
	{"no_ol_ins", "INSERT INTO order_line VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"},

	{"pay_w_upd", "UPDATE warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?"},
	{"pay_w_sel", "SELECT w_name FROM warehouse WHERE w_id = ?"},
	{"pay_d_upd", "UPDATE district SET d_ytd = d_ytd + ? WHERE d_w_id = ? AND d_id = ?"},
	{"pay_d_sel", "SELECT d_name FROM district WHERE d_w_id = ? AND d_id = ?"},
	{"c_name", "SELECT c_id, c_first FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_last = ?"},
	{"pay_c_upd", "UPDATE customer SET c_balance = c_balance - ?, c_ytd_payment = c_ytd_payment + ?, c_payment_cnt = c_payment_cnt + 1 WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?"},
	{"c_sel", "SELECT c_first, c_last, c_balance, c_credit FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?"},
	{"pay_h_ins", "INSERT INTO history VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)"},

	{"os_o_sel", "SELECT o_id, o_entry_d, o_carrier_id FROM orders WHERE o_w_id = ? AND o_d_id = ? AND o_c_id = ?"},
	{"os_ol_sel", "SELECT ol_i_id, ol_supply_w_id, ol_quantity, ol_amount, ol_delivery_d FROM order_line WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?"},

	{"dl_no_sel", "SELECT no_o_id FROM new_orders WHERE no_w_id = ? AND no_d_id = ?"},
	{"dl_no_del", "DELETE FROM new_orders WHERE no_w_id = ? AND no_d_id = ? AND no_o_id = ?"},
	{"dl_o_sel", "SELECT o_c_id FROM orders WHERE o_w_id = ? AND o_d_id = ? AND o_id = ?"},
	{"dl_o_upd", "UPDATE orders SET o_carrier_id = ? WHERE o_w_id = ? AND o_d_id = ? AND o_id = ?"},
	{"dl_ol_sel", "SELECT ol_number, ol_amount FROM order_line WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?"},
	{"dl_ol_upd", "UPDATE order_line SET ol_delivery_d = ? WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ? AND ol_number = ?"},
	{"dl_c_upd", "UPDATE customer SET c_balance = c_balance + ?, c_delivery_cnt = c_delivery_cnt + 1 WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?"},

	{"sl_d_sel", "SELECT d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ?"},
	{"sl_ol_sel", "SELECT ol_i_id FROM order_line WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?"},
	{"sl_s_sel", "SELECT s_quantity FROM stock WHERE s_w_id = ? AND s_i_id = ?"},
}

type tpccInstance struct {
	sc   tpccScale
	st   *stack
	seed int64

	srv    *server.Server
	addr   string
	served chan error

	reqBytes, respBytes, roundTrips atomic.Int64
	planBase                        frontEndCounts // rollup of servers already shut down

	clients [2]*tpccClient
}

func openTPCC(st *stack, seed int64, smoke bool) instance {
	sc := tpccFull
	if smoke {
		sc = tpccSmoke
	}
	return &tpccInstance{sc: sc, st: st, seed: seed}
}

func (in *tpccInstance) types() []string    { return tpccTypes }
func (in *tpccInstance) warmupTxns() int    { return 2000 }
func (in *tpccInstance) numTxnClients() int { return 2 }
func (in *tpccInstance) scan() scanFunc     { return nil }

func (in *tpccInstance) scanAnomalies() (int64, int64) { return 0, 0 }

// loader batches rows into transactions of loadBatch rows.
type loader struct {
	db      *btrim.ShardedDB
	tx      *btrim.STx
	pending int
}

func (l *loader) insert(table string, r btrim.Row) error {
	if l.tx == nil {
		l.tx = l.db.Begin()
	}
	if err := l.tx.Insert(table, r); err != nil {
		l.tx.Abort()
		return fmt.Errorf("load %s: %w", table, err)
	}
	l.pending++
	if l.pending >= loadBatch {
		return l.flush()
	}
	return nil
}

func (l *loader) flush() error {
	if l.tx == nil {
		return nil
	}
	err := l.tx.Commit()
	l.tx, l.pending = nil, 0
	return err
}

func (in *tpccInstance) load() error {
	for _, spec := range tpccTables {
		if err := in.st.db.CreateTable(spec); err != nil {
			return err
		}
	}
	sc := in.sc
	rng := newRNG(in.seed, 100)
	l := &loader{db: in.st.db}
	f64 := btrim.Float64
	str := btrim.String
	for i := 1; i <= sc.items; i++ {
		if err := l.insert("item", btrim.Row{i64(i), str(randString(rng, 14, 24)), f64(float64(1 + rng.Intn(100))), str(randString(rng, 26, 50))}); err != nil {
			return err
		}
	}
	hid := 0
	for w := 1; w <= sc.warehouses; w++ {
		ytd := float64(30000 * sc.districts)
		if err := l.insert("warehouse", btrim.Row{i64(w), str(randString(rng, 6, 10)), f64(0.1), f64(ytd)}); err != nil {
			return err
		}
		for i := 1; i <= sc.items; i++ {
			err := l.insert("stock", btrim.Row{i64(w), i64(i), i64(10 + rng.Intn(91)), f64(0), i64(0), i64(0),
				str(randString(rng, 24, 24)), str(randString(rng, 26, 50))})
			if err != nil {
				return err
			}
		}
		for d := 1; d <= sc.districts; d++ {
			if err := l.insert("district", btrim.Row{i64(w), i64(d), str(randString(rng, 6, 10)), f64(0.1), f64(30000), i64(sc.customers + 1)}); err != nil {
				return err
			}
			for c := 1; c <= sc.customers; c++ {
				credit := "GC"
				if rng.Intn(10) == 0 {
					credit = "BC"
				}
				err := l.insert("customer", btrim.Row{i64(w), i64(d), i64(c), str(randString(rng, 8, 16)),
					str(lastName((c - 1) % sc.names)), str(credit), f64(0.05), f64(-10), f64(10), i64(1), i64(0),
					str(randString(rng, 300, 500))})
				if err != nil {
					return err
				}
				hid++
				err = l.insert("history", btrim.Row{i64(hid), i64(w), i64(d), i64(c), i64(w), i64(d), i64(0), f64(10), str(randString(rng, 12, 24))})
				if err != nil {
					return err
				}
			}
			// One order per customer, customers in random order; the last
			// 30 % are undelivered and sit in new_orders.
			perm := rng.Perm(sc.customers)
			delivered := sc.customers * 7 / 10
			for o := 1; o <= sc.customers; o++ {
				olCnt := 5 + rng.Intn(11)
				carrier := 0
				if o <= delivered {
					carrier = 1 + rng.Intn(10)
				} else if err := l.insert("new_orders", btrim.Row{i64(w), i64(d), i64(o)}); err != nil {
					return err
				}
				if err := l.insert("orders", btrim.Row{i64(w), i64(d), i64(o), i64(perm[o-1] + 1), i64(0), i64(carrier), i64(olCnt), i64(1)}); err != nil {
					return err
				}
				for n := 1; n <= olCnt; n++ {
					amount, deliveredAt := 0.0, 1
					if o > delivered {
						amount, deliveredAt = float64(1+rng.Intn(9999)), 0
					}
					err := l.insert("order_line", btrim.Row{i64(w), i64(d), i64(o), i64(n), i64(1 + rng.Intn(sc.items)), i64(w),
						i64(deliveredAt), i64(5), f64(amount), str(randString(rng, 24, 24))})
					if err != nil {
						return err
					}
				}
			}
		}
	}
	return l.flush()
}

func (in *tpccInstance) startFrontEnd() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	in.srv = server.New(in.st.eng)
	in.addr = ln.Addr().String()
	in.served = make(chan error, 1)
	go func(srv *server.Server) { in.served <- srv.Serve(ln) }(in.srv)
	return nil
}

func (in *tpccInstance) stopFrontEnd() {
	if in.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = in.srv.Shutdown(ctx) // connections are already closed; a late one is cut here
	<-in.served
	s := in.srv.Stats()
	in.planBase.planHits += s.PlanCacheHits
	in.planBase.planMisses += s.PlanCacheMisses
	in.planBase.preparedExecs += s.PreparedExecs
	in.srv = nil
}

func (in *tpccInstance) frontEnd() frontEndCounts {
	f := in.planBase
	if in.srv != nil {
		s := in.srv.Stats()
		f.planHits += s.PlanCacheHits
		f.planMisses += s.PlanCacheMisses
		f.preparedExecs += s.PreparedExecs
	}
	f.reqBytes, f.respBytes, f.roundTrips = in.reqBytes.Load(), in.respBytes.Load(), in.roundTrips.Load()
	return f
}

// countingConn counts the bytes of one client connection.
type countingConn struct {
	net.Conn
	in *tpccInstance
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.respBytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.in.reqBytes.Add(int64(n))
	return n, err
}

// frontConn is how a TPC-C client reaches SQL: a pipelined TCP
// connection, or (traced session pass) the same frames executed on an
// in-process sql.Session with the server's stop-at-first-failure rule.
type frontConn interface {
	prepare(name, text string) error
	queue(stmt string)
	exec(name string, args ...btrim.Value)
	run() ([]server.StmtResult, error)
	// rollback drops anything queued but unsent and ends the open
	// transaction block.
	rollback()
	close()
}

type wireConn struct {
	cli *server.Client
	p   *server.Pipeline
	in  *tpccInstance
}

func dialWire(in *tpccInstance) (*wireConn, error) {
	conn, err := net.Dial("tcp", in.addr)
	if err != nil {
		return nil, err
	}
	cli := server.NewClient(countingConn{conn, in})
	return &wireConn{cli: cli, p: cli.Pipeline(), in: in}, nil
}

func (w *wireConn) prepare(name, text string) error {
	res, err := w.p.QueuePrepare(name, text).Run()
	w.in.roundTrips.Add(1)
	if err == nil {
		err = res[0].Err
	}
	return err
}
func (w *wireConn) queue(stmt string)                     { w.p.Queue(stmt) }
func (w *wireConn) exec(name string, args ...btrim.Value) { w.p.QueueExecute(name, args...) }
func (w *wireConn) run() ([]server.StmtResult, error) {
	w.in.roundTrips.Add(1)
	return w.p.Run()
}
func (w *wireConn) rollback() {
	w.p = w.cli.Pipeline()
	w.in.roundTrips.Add(1)
	_, _ = w.cli.Exec("ROLLBACK") // clears the aborted block; fails only when none is open
}
func (w *wireConn) close() { _ = w.cli.Close() }

type sessMsg struct {
	name string // prepared statement, or "" for literal SQL
	sql  string
	args []btrim.Value
}

type sessConn struct {
	s *sql.Session
	q []sessMsg
}

func (c *sessConn) prepare(name, text string) error {
	_, err := c.s.Prepare(name, text)
	return err
}
func (c *sessConn) queue(stmt string) { c.q = append(c.q, sessMsg{sql: stmt}) }
func (c *sessConn) exec(name string, args ...btrim.Value) {
	c.q = append(c.q, sessMsg{name: name, args: args})
}
func (c *sessConn) run() ([]server.StmtResult, error) {
	out := make([]server.StmtResult, len(c.q))
	failed := false
	for i, m := range c.q {
		switch {
		case failed:
			out[i].Err = server.ErrStmtSkipped
		case m.name == "":
			out[i].Res, out[i].Err = c.s.Exec(m.sql)
		default:
			out[i].Res, out[i].Err = c.s.ExecPrepared(m.name, m.args)
		}
		failed = failed || out[i].Err != nil
	}
	c.q = c.q[:0]
	return out, nil
}
func (c *sessConn) rollback() {
	c.q = c.q[:0]
	_, _ = c.s.Exec("ROLLBACK")
}
func (c *sessConn) close() { c.s.Close() }

// tpccParams is one transaction's inputs, drawn before the first attempt
// so that a retry re-issues the same transaction.
type tpccParams struct {
	typ        int
	w, d, c    int
	cw, cd     int // Payment: the customer's warehouse and district
	byName     bool
	last       string
	amount     float64
	lines      []orderLine
	rollback   bool
	carrier    int
	threshold  int
	now        int64
	historyID  int64
	remoteLine bool
}

type orderLine struct{ item, supplyW, qty int }

type tpccClient struct {
	in     *tpccInstance
	id     int
	home   int
	rng    *rand.Rand
	mode   clientMode
	ct     *clientTrace
	conn   frontConn
	clock  int64
	hseq   int64
	agg    *layerAgg
	p      tpccParams
	lineBf []orderLine

	payments      int64 // acknowledged Payments
	maybePayments int64 // Payments whose commit outcome a crash left unknown
}

func (in *tpccInstance) newClient(id, stream int, mode clientMode) txnClient {
	c := in.clients[id]
	if c == nil {
		c = &tpccClient{in: in, id: id, home: id%in.sc.warehouses + 1, hseq: int64(id+1) << 40}
		in.clients[id] = c
	}
	c.mode = mode
	c.rng = newRNG(in.seed, stream*16+id)
	return c
}

func (c *tpccClient) start() error {
	if c.mode.traced {
		c.ct = c.in.st.tr.newClientTrace()
	}
	if c.mode.wire {
		w, err := dialWire(c.in)
		if err != nil {
			return err
		}
		c.conn = w
	} else {
		c.conn = &sessConn{s: sql.NewSession(c.in.st.clientEngine(c.ct))}
	}
	for _, ps := range tpccStmts {
		if err := c.conn.prepare(ps.name, ps.text); err != nil {
			return fmt.Errorf("prepare %s: %w", ps.name, err)
		}
	}
	return nil
}

func (c *tpccClient) close() {
	if c.conn != nil {
		c.conn.close()
		c.conn = nil
	}
	if c.ct != nil {
		c.agg = c.ct.agg
		c.ct.close()
		c.ct = nil
	}
}

func (c *tpccClient) traceAgg() *layerAgg { return c.agg }

// run sends the queued frame and returns its results, or the first
// statement error in it.
func (c *tpccClient) run() ([]server.StmtResult, error) {
	if c.ct != nil {
		kind := spSQL
		if c.mode.wire {
			kind = spWire
		}
		c.ct.t.openFrame(kind)
		defer c.ct.t.closeFrame()
	}
	res, err := c.conn.run()
	if err != nil {
		return nil, err
	}
	for i := range res {
		if res[i].Err != nil {
			return nil, res[i].Err
		}
	}
	return res, nil
}

var errUserAbort = errors.New("tpcc: user abort")

func (c *tpccClient) txn() txnResult {
	c.draw()
	res := txnResult{typ: c.p.typ}
	if c.ct != nil {
		c.ct.begin()
		defer c.ct.end()
	}
	for {
		err := c.attempt(res.typ)
		switch {
		case err == nil:
			if res.typ == tpPayment {
				c.payments++
			}
			return res
		case errors.Is(err, errUserAbort):
			c.conn.rollback()
			res.out = userAbort
			return res
		case errors.Is(err, errReadAnomaly) && res.anomalies < maxRetries:
			c.conn.rollback()
			res.anomalies++
		case isRetryable(err) && res.retries < maxRetries:
			c.conn.rollback()
			res.retries++
		default:
			c.conn.rollback()
			if res.typ == tpPayment {
				c.maybePayments++
				c.hseq++
			}
			res.out, res.err = failed, err
			return res
		}
	}
}

// draw picks the next transaction and all its inputs.
func (c *tpccClient) draw() {
	sc, rng := c.in.sc, c.rng
	c.clock++
	p := &c.p
	*p = tpccParams{w: c.home, d: 1 + rng.Intn(sc.districts), now: c.clock, lines: c.lineBf[:0]}
	switch r := rng.Intn(100); {
	case r < 45:
		p.typ = tpNewOrder
		p.c = nurand(rng, 1023, 1, sc.customers)
		n := 5 + rng.Intn(11)
		for i := 0; i < n; i++ {
			l := orderLine{item: nurand(rng, 8191, 1, sc.items), supplyW: c.home, qty: 1 + rng.Intn(10)}
			if sc.warehouses > 1 && rng.Intn(100) == 0 {
				for l.supplyW == c.home {
					l.supplyW = 1 + rng.Intn(sc.warehouses)
				}
				p.remoteLine = true
			}
			p.lines = append(p.lines, l)
		}
		// Lock stock rows in one global order: two orders can never wait
		// for each other's rows.
		sort.Slice(p.lines, func(i, j int) bool {
			a, b := p.lines[i], p.lines[j]
			return a.supplyW < b.supplyW || a.supplyW == b.supplyW && a.item < b.item
		})
		if rng.Intn(100) == 0 {
			p.rollback = true
			p.lines[len(p.lines)-1].item = sc.items + 1 // unused item id
		}
		c.lineBf = p.lines
	case r < 88:
		p.typ = tpPayment
		p.cw, p.cd = c.home, p.d
		if sc.warehouses > 1 && rng.Intn(100) < 15 {
			for p.cw == c.home {
				p.cw = 1 + rng.Intn(sc.warehouses)
			}
			p.cd = 1 + rng.Intn(sc.districts)
		}
		c.drawCustomer(p)
		p.amount = float64(1 + rng.Intn(5000))
		p.historyID = c.hseq
	case r < 92:
		p.typ = tpOrderStatus
		c.drawCustomer(p)
	case r < 96:
		p.typ = tpDelivery
	default:
		p.typ = tpStockLevel
		p.threshold = 10 + rng.Intn(11)
	}
}

func (c *tpccClient) drawCustomer(p *tpccParams) {
	if c.rng.Intn(100) < 60 {
		p.byName = true
		p.last = lastName(nurand(c.rng, 255, 0, c.in.sc.names-1))
	} else {
		p.c = nurand(c.rng, 1023, 1, c.in.sc.customers)
	}
}

func (c *tpccClient) attempt(typ int) error {
	switch typ {
	case tpNewOrder:
		return c.newOrder()
	case tpPayment:
		return c.payment()
	case tpOrderStatus:
		return c.orderStatus()
	case tpDelivery:
		return c.delivery()
	default:
		return c.stockLevel()
	}
}

// oneRow returns the single row a point SELECT of an existing row must
// produce; anything else is a read anomaly (kv.go), which txn re-issues.
func oneRow(r server.StmtResult, what string) (btrim.Row, error) {
	if len(r.Res.Rows) != 1 {
		return nil, fmt.Errorf("%w: tpcc: %s returned %d rows, want 1", errReadAnomaly, what, len(r.Res.Rows))
	}
	return r.Res.Rows[0], nil
}

func affectedOne(r server.StmtResult, what string) error {
	if r.Res.Affected != 1 {
		return fmt.Errorf("tpcc: %s affected %d rows, want 1", what, r.Res.Affected)
	}
	return nil
}

func (c *tpccClient) newOrder() error {
	p, q := &c.p, c.conn
	q.queue("BEGIN")
	q.exec("no_d_upd", i64(p.w), i64(p.d))
	q.exec("no_d_sel", i64(p.w), i64(p.d))
	q.exec("no_w_sel", i64(p.w))
	q.exec("no_c_sel", i64(p.w), i64(p.d), i64(p.c))
	for _, l := range p.lines {
		q.exec("no_i_sel", i64(l.item))
		q.exec("no_s_sel", i64(l.supplyW), i64(l.item))
	}
	res, err := c.run()
	if err != nil {
		return err
	}
	drow, err := oneRow(res[2], "district")
	if err != nil {
		return err
	}
	oid := drow[0].Int() - 1
	if _, err := oneRow(res[4], "customer"); err != nil {
		return err
	}
	// Check every line before queueing the second frame: an order with
	// an unknown item is the 1 % that TPC-C rolls back.
	for n, l := range p.lines {
		if len(res[5+2*n].Res.Rows) == 0 {
			if p.rollback && n == len(p.lines)-1 {
				return errUserAbort
			}
			return fmt.Errorf("tpcc: item %d not found", l.item)
		}
		if _, err := oneRow(res[6+2*n], "stock"); err != nil {
			return err
		}
	}
	allLocal := 1
	if p.remoteLine {
		allLocal = 0
	}
	q.exec("no_o_ins", i64(p.w), i64(p.d), btrim.Int64(oid), i64(p.c), btrim.Int64(p.now), i64(0), i64(len(p.lines)), i64(allLocal))
	q.exec("no_no_ins", i64(p.w), i64(p.d), btrim.Int64(oid))
	for n, l := range p.lines {
		price, srow := res[5+2*n].Res.Rows[0][0].Float(), res[6+2*n].Res.Rows[0]
		qty := int(srow[0].Int())
		if qty >= l.qty+10 {
			qty -= l.qty
		} else {
			qty += 91 - l.qty
		}
		remote := 0
		if l.supplyW != p.w {
			remote = 1
		}
		q.exec("no_s_upd", i64(qty), btrim.Float64(float64(l.qty)), i64(remote), i64(l.supplyW), i64(l.item))
		q.exec("no_ol_ins", i64(p.w), i64(p.d), btrim.Int64(oid), i64(n+1), i64(l.item), i64(l.supplyW), i64(0), i64(l.qty),
			btrim.Float64(float64(l.qty)*price), btrim.String(srow[1].Str()))
	}
	q.queue("COMMIT")
	_, err = c.run()
	return err
}

func (c *tpccClient) payment() error {
	p, q := &c.p, c.conn
	q.queue("BEGIN")
	q.exec("pay_w_upd", btrim.Float64(p.amount), i64(p.w))
	q.exec("pay_w_sel", i64(p.w))
	q.exec("pay_d_upd", btrim.Float64(p.amount), i64(p.w), i64(p.d))
	q.exec("pay_d_sel", i64(p.w), i64(p.d))
	cid := p.c
	if p.byName {
		q.exec("c_name", i64(p.cw), i64(p.cd), btrim.String(p.last))
		res, err := c.run()
		if err != nil {
			return err
		}
		if cid, err = pickByName(res[5], p.last); err != nil {
			return err
		}
	}
	q.exec("pay_c_upd", btrim.Float64(p.amount), btrim.Float64(p.amount), i64(p.cw), i64(p.cd), i64(cid))
	q.exec("c_sel", i64(p.cw), i64(p.cd), i64(cid))
	q.exec("pay_h_ins", btrim.Int64(p.historyID), i64(p.cw), i64(p.cd), i64(cid), i64(p.w), i64(p.d), btrim.Int64(p.now),
		btrim.Float64(p.amount), btrim.String("payment"))
	q.queue("COMMIT")
	res, err := c.run()
	if err != nil {
		return err
	}
	// The customer update is the third statement from the end of the
	// second frame and the sixth of a single one.
	if err := affectedOne(res[len(res)-4], "customer update"); err != nil {
		return err
	}
	c.hseq++
	return nil
}

// pickByName applies TPC-C's rule for a last-name lookup: of the
// matching customers ordered by first name, take the one at position
// ceil(n/2).
func pickByName(r server.StmtResult, last string) (int, error) {
	rows := r.Res.Rows
	if len(rows) == 0 {
		return 0, fmt.Errorf("tpcc: no customer named %s", last)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i][1].Str() < rows[j][1].Str() })
	return int(rows[(len(rows)-1)/2][0].Int()), nil
}

func (c *tpccClient) orderStatus() error {
	p, q := &c.p, c.conn
	q.queue("BEGIN")
	cid := p.c
	if p.byName {
		q.exec("c_name", i64(p.w), i64(p.d), btrim.String(p.last))
		res, err := c.run()
		if err != nil {
			return err
		}
		if cid, err = pickByName(res[1], p.last); err != nil {
			return err
		}
	}
	q.exec("c_sel", i64(p.w), i64(p.d), i64(cid))
	q.exec("os_o_sel", i64(p.w), i64(p.d), i64(cid))
	res, err := c.run()
	if err != nil {
		return err
	}
	orders := res[len(res)-1].Res.Rows
	if len(orders) == 0 {
		return fmt.Errorf("tpcc: customer %d/%d/%d has no orders", p.w, p.d, cid)
	}
	last := orders[0][0].Int()
	for _, o := range orders[1:] {
		if o[0].Int() > last {
			last = o[0].Int()
		}
	}
	q.exec("os_ol_sel", i64(p.w), i64(p.d), btrim.Int64(last))
	q.queue("COMMIT")
	res, err = c.run()
	if err != nil {
		return err
	}
	if n := len(res[0].Res.Rows); n < 5 || n > 15 {
		return fmt.Errorf("tpcc: order %d/%d/%d has %d lines", p.w, p.d, last, n)
	}
	return nil
}

func (c *tpccClient) delivery() error {
	p, q := &c.p, c.conn
	nd := c.in.sc.districts
	q.queue("BEGIN")
	for d := 1; d <= nd; d++ {
		q.exec("dl_no_sel", i64(p.w), i64(d))
	}
	res, err := c.run()
	if err != nil {
		return err
	}
	type pick struct {
		d   int
		oid int64
	}
	var picks []pick
	for d := 1; d <= nd; d++ {
		rows := res[d].Res.Rows
		if len(rows) == 0 {
			continue
		}
		oldest := rows[0][0].Int()
		for _, r := range rows[1:] {
			if r[0].Int() < oldest {
				oldest = r[0].Int()
			}
		}
		picks = append(picks, pick{d, oldest})
		q.exec("dl_no_del", i64(p.w), i64(d), btrim.Int64(oldest))
		q.exec("dl_o_sel", i64(p.w), i64(d), btrim.Int64(oldest))
		q.exec("dl_o_upd", i64(p.carrier), i64(p.w), i64(d), btrim.Int64(oldest))
		q.exec("dl_ol_sel", i64(p.w), i64(d), btrim.Int64(oldest))
	}
	if len(picks) == 0 {
		q.queue("COMMIT")
		_, err := c.run()
		return err
	}
	res, err = c.run()
	if err != nil {
		return err
	}
	for i, pk := range picks {
		if err := affectedOne(res[4*i], "new_orders delete"); err != nil {
			return err
		}
		orow, err := oneRow(res[4*i+1], "order")
		if err != nil {
			return err
		}
		var total float64
		for _, ol := range res[4*i+3].Res.Rows {
			total += ol[1].Float()
			q.exec("dl_ol_upd", btrim.Int64(p.now), i64(p.w), i64(pk.d), btrim.Int64(pk.oid), ol[0])
		}
		q.exec("dl_c_upd", btrim.Float64(total), i64(p.w), i64(pk.d), orow[0])
	}
	q.queue("COMMIT")
	_, err = c.run()
	return err
}

func (c *tpccClient) stockLevel() error {
	p, q := &c.p, c.conn
	q.queue("BEGIN")
	q.exec("sl_d_sel", i64(p.w), i64(p.d))
	res, err := c.run()
	if err != nil {
		return err
	}
	drow, err := oneRow(res[1], "district")
	if err != nil {
		return err
	}
	next := drow[0].Int()
	for o := next - 20; o < next; o++ {
		q.exec("sl_ol_sel", i64(p.w), i64(p.d), btrim.Int64(o))
	}
	if res, err = c.run(); err != nil {
		return err
	}
	seen := make(map[int64]struct{}, 200)
	for _, r := range res {
		for _, ol := range r.Res.Rows {
			if _, dup := seen[ol[0].Int()]; !dup {
				seen[ol[0].Int()] = struct{}{}
				q.exec("sl_s_sel", i64(p.w), ol[0])
			}
		}
	}
	q.queue("COMMIT")
	if res, err = c.run(); err != nil {
		return err
	}
	low := 0
	for _, r := range res[:len(res)-1] {
		srow, err := oneRow(r, "stock")
		if err != nil {
			return err
		}
		if srow[0].Int() < int64(p.threshold) {
			low++
		}
	}
	_ = low // the transaction's answer; nothing to compare it with
	return nil
}

// scanTable streams the named columns of a table through fn.
func scanTable(db *btrim.ShardedDB, table string, cols []string, fn func(b *btrim.Batch)) error {
	return db.View(func(tx *btrim.STx) error {
		return tx.ScanBatches(table, cols, 0, func(b *btrim.Batch) bool {
			fn(b)
			return true
		})
	})
}

type districtKey struct{ w, d int64 }

// verify checks the TPC-C consistency conditions on the quiescent
// database: Σd_ytd = w_ytd per warehouse; d_next_o_id−1 = max(o_id) =
// max(no_o_id) and the new_orders ids are contiguous per district;
// Σo_ol_cnt = number of order lines per district; history rows = loaded
// rows + acknowledged Payments.
func (in *tpccInstance) verify() error {
	db := in.st.db
	wYTD := map[int64]float64{}
	dYTD := map[int64]float64{}
	next := map[districtKey]int64{}
	if err := scanTable(db, "warehouse", []string{"w_id", "w_ytd"}, func(b *btrim.Batch) {
		for i, w := range b.Cols[0].I64 {
			wYTD[w] = b.Cols[1].F64[i]
		}
	}); err != nil {
		return err
	}
	if err := scanTable(db, "district", []string{"d_w_id", "d_id", "d_ytd", "d_next_o_id"}, func(b *btrim.Batch) {
		for i, w := range b.Cols[0].I64 {
			dYTD[w] += b.Cols[2].F64[i]
			next[districtKey{w, b.Cols[1].I64[i]}] = b.Cols[3].I64[i]
		}
	}); err != nil {
		return err
	}
	if len(wYTD) != in.sc.warehouses || len(next) != in.sc.warehouses*in.sc.districts {
		return fmt.Errorf("tpcc verify: %d warehouses, %d districts", len(wYTD), len(next))
	}
	for w, y := range wYTD {
		if dYTD[w] != y {
			return fmt.Errorf("tpcc verify: warehouse %d: w_ytd %.0f but its districts' d_ytd sum to %.0f", w, y, dYTD[w])
		}
	}

	maxO := map[districtKey]int64{}
	olCnt := map[districtKey]int64{}
	if err := scanTable(db, "orders", []string{"o_w_id", "o_d_id", "o_id", "o_ol_cnt"}, func(b *btrim.Batch) {
		for i, w := range b.Cols[0].I64 {
			k := districtKey{w, b.Cols[1].I64[i]}
			if o := b.Cols[2].I64[i]; o > maxO[k] {
				maxO[k] = o
			}
			olCnt[k] += b.Cols[3].I64[i]
		}
	}); err != nil {
		return err
	}
	type noRange struct{ min, max, n int64 }
	no := map[districtKey]*noRange{}
	if err := scanTable(db, "new_orders", []string{"no_w_id", "no_d_id", "no_o_id"}, func(b *btrim.Batch) {
		for i, w := range b.Cols[0].I64 {
			k, o := districtKey{w, b.Cols[1].I64[i]}, b.Cols[2].I64[i]
			r := no[k]
			if r == nil {
				r = &noRange{min: o, max: o}
				no[k] = r
			}
			r.n++
			if o < r.min {
				r.min = o
			}
			if o > r.max {
				r.max = o
			}
		}
	}); err != nil {
		return err
	}
	lines := map[districtKey]int64{}
	if err := scanTable(db, "order_line", []string{"ol_w_id", "ol_d_id"}, func(b *btrim.Batch) {
		for i, w := range b.Cols[0].I64 {
			lines[districtKey{w, b.Cols[1].I64[i]}]++
		}
	}); err != nil {
		return err
	}
	for k, n := range next {
		if maxO[k] != n-1 {
			return fmt.Errorf("tpcc verify: district %v: d_next_o_id %d but max(o_id) %d", k, n, maxO[k])
		}
		if r := no[k]; r != nil {
			if r.max != n-1 {
				return fmt.Errorf("tpcc verify: district %v: d_next_o_id %d but max(no_o_id) %d", k, n, r.max)
			}
			if r.max-r.min+1 != r.n {
				return fmt.Errorf("tpcc verify: district %v: new_orders holds %d rows for ids %d..%d", k, r.n, r.min, r.max)
			}
		}
		if lines[k] != olCnt[k] {
			return fmt.Errorf("tpcc verify: district %v: Σo_ol_cnt %d but %d order lines", k, olCnt[k], lines[k])
		}
	}

	var history int64
	if err := scanTable(db, "history", []string{"h_id"}, func(b *btrim.Batch) { history += int64(b.Len()) }); err != nil {
		return err
	}
	want := int64(in.sc.warehouses * in.sc.districts * in.sc.customers)
	var slack int64
	for _, c := range in.clients {
		if c != nil {
			want += c.payments
			slack += c.maybePayments
		}
	}
	if history < want || history > want+slack {
		return fmt.Errorf("tpcc verify: history holds %d rows, loaded + acknowledged Payments = %d (+%d unknown)", history, want, slack)
	}
	return nil
}
