package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/btrim"
	"repro/internal/sql"
)

// The three API workloads share one table shape and one driver; a kvSpec
// says how they differ. Row: id, v1 int64, v2 float64, pad string(100)
// [, tag string]. Every write is an acknowledged increment of v1, which
// is what the driver-side oracle checks after the run and after a crash.

type kvSpec struct {
	name    string
	rows    int64
	withTag bool // extra low-cardinality string column (64 values) for the scan projection
	ledger  bool // every transaction also inserts one row into an append-only ledger

	// Transaction mix: percent of read-only transactions, and how many
	// Gets a read-only transaction makes.
	readPct, readGets int

	keys    func(rows int64) keygen // per client
	scanner bool                    // client 2 scans instead of running transactions
	warmup  int                     // warm-up transactions per client

	cfg, smokeCfg stackConfig
	smokeRows     int64
}

// keygen draws the next key of a client's stream.
type keygen interface {
	key(rng *rand.Rand) int64
}

type uniformKeys struct{ n int64 }

func (u uniformKeys) key(rng *rand.Rand) int64 { return rng.Int63n(u.n) }

const (
	kvTable     = "kv"
	ledgerTable = "ledger"
	kvTags      = 64
	loadBatch   = 500 // rows per load transaction
)

const (
	kvRead = iota
	kvWrite
)

var kvTypes = []string{"read", "write"}

type kvInstance struct {
	spec kvSpec
	rows int64
	st   *stack
	seed int64

	clients [2]*kvClient // one per client id, kept across phases: they hold the oracle
	lastSum int64        // Σv1 seen by the previous complete scan

	scans, anomalies int64 // complete scans by the scan client; those with a wrong row count
}

func (s kvSpec) open(st *stack, seed int64, smoke bool) instance {
	rows := s.rows
	if smoke {
		rows = s.smokeRows
	}
	return &kvInstance{spec: s, rows: rows, st: st, seed: seed}
}

func (in *kvInstance) types() []string { return kvTypes }

func (in *kvInstance) load() error {
	cols := []btrim.Column{
		{Name: "id", Type: btrim.Int64Type},
		{Name: "v1", Type: btrim.Int64Type},
		{Name: "v2", Type: btrim.Float64Type},
		{Name: "pad", Type: btrim.StringType},
	}
	if in.spec.withTag {
		cols = append(cols, btrim.Column{Name: "tag", Type: btrim.StringType})
	}
	if err := in.st.db.CreateTable(btrim.TableSpec{Name: kvTable, Columns: cols, PrimaryKey: []string{"id"}}); err != nil {
		return err
	}
	if in.spec.ledger {
		err := in.st.db.CreateTable(btrim.TableSpec{
			Name: ledgerTable,
			Columns: []btrim.Column{
				{Name: "id", Type: btrim.Int64Type},
				{Name: "account", Type: btrim.Int64Type},
				{Name: "amount", Type: btrim.Int64Type},
			},
			PrimaryKey: []string{"id"},
		})
		if err != nil {
			return err
		}
	}
	rng := newRNG(in.seed, 100)
	for lo := int64(0); lo < in.rows; lo += loadBatch {
		hi := lo + loadBatch
		if hi > in.rows {
			hi = in.rows
		}
		err := in.st.db.Update(func(tx *btrim.STx) error {
			for id := lo; id < hi; id++ {
				r := btrim.Row{btrim.Int64(id), btrim.Int64(0), btrim.Float64(rng.Float64()), btrim.String(randString(rng, 100, 100))}
				if in.spec.withTag {
					r = append(r, btrim.String(fmt.Sprintf("tag-%02d", id%kvTags)))
				}
				if err := tx.Insert(kvTable, r); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("load %s rows %d..%d: %w", kvTable, lo, hi, err)
		}
	}
	return nil
}

func (in *kvInstance) warmupTxns() int { return in.spec.warmup }

func (in *kvInstance) numTxnClients() int {
	if in.spec.scanner {
		return 1
	}
	return 2
}

// kvClient is one closed-loop API client.
type kvClient struct {
	in   *kvInstance
	id   int
	rng  *rand.Rand
	keys keygen
	ct   *clientTrace
	agg  *layerAgg
	eng  sql.Engine

	traced bool
	acks   []uint32 // acknowledged increments per key
	maybe  []int64  // keys of increments whose commit outcome is unknown (crash in flight)
	ledger int64    // acknowledged ledger inserts
	seq    int64
	kbuf   [4]int64
}

// newClient returns client id with a fresh request stream. stream
// separates the phases of a run so that each replays from its own seed;
// the client's oracle carries over from phase to phase.
func (in *kvInstance) newClient(id, stream int, mode clientMode) txnClient {
	c := in.clients[id]
	if c == nil {
		c = &kvClient{in: in, id: id, acks: make([]uint32, in.rows), seq: int64(id) << 40}
		in.clients[id] = c
	}
	c.traced = mode.traced
	c.rng = newRNG(in.seed, stream*16+id)
	c.keys = in.spec.keys(in.rows)
	return c
}

func (c *kvClient) start() error {
	if c.traced {
		c.ct = c.in.st.tr.newClientTrace()
	}
	c.eng = c.in.st.clientEngine(c.ct)
	return nil
}

func (c *kvClient) close() {
	if c.ct != nil {
		c.agg = c.ct.agg
		c.ct.close()
		c.ct = nil
	}
}

func (c *kvClient) traceAgg() *layerAgg { return c.agg }

func (c *kvClient) txn() txnResult {
	spec := &c.in.spec
	write := c.rng.Intn(100) >= spec.readPct
	n := 1
	if !write {
		n = spec.readGets
	}
	for i := 0; i < n; i++ {
		c.kbuf[i] = c.keys.key(c.rng)
	}
	res := txnResult{typ: kvRead}
	if write {
		res.typ = kvWrite
	}
	if c.ct != nil {
		c.ct.begin()
		defer c.ct.end()
	}
	for {
		var err error
		if write {
			err = c.write(c.kbuf[0])
		} else {
			err = c.read(c.kbuf[:n])
		}
		switch {
		case err == nil:
			return res
		case errors.Is(err, errReadAnomaly) && res.anomalies < maxRetries:
			res.anomalies++
		case isRetryable(err) && res.retries < maxRetries:
			res.retries++
		default:
			res.out, res.err = failed, err
			return res
		}
	}
}

// errReadAnomaly marks a point read of a row that must exist coming back
// missing, as another row, or undecodable. At the seed commit this happens about once
// in a million transactions on hot keys that another client is updating
// (README "Known limits"); the driver counts it, re-issues the
// transaction, and fails it only if it keeps happening.
var errReadAnomaly = errors.New("read anomaly")

// get reads key k, which always exists. A miss, another row, or a row
// image that does not decode ("row: truncated at column 0" has been seen)
// is a read anomaly; lock timeouts and relocation aborts stay what they
// are.
func (c *kvClient) get(tx sql.Txn, k int64) (btrim.Row, error) {
	r, ok, err := tx.Get(kvTable, btrim.Int64(k))
	switch {
	case err != nil && isRetryable(err):
		return nil, err
	case err != nil:
		return nil, fmt.Errorf("%w: get %d: %v", errReadAnomaly, k, err)
	case !ok || r[0].Int() != k:
		return nil, fmt.Errorf("%w: get %d returned %v (found=%v)", errReadAnomaly, k, r, ok)
	}
	return r, nil
}

func (c *kvClient) read(keys []int64) error {
	tx := c.eng.Begin()
	for _, k := range keys {
		r, err := c.get(tx, k)
		if err != nil {
			tx.Abort()
			return err
		}
		if r[1].Int() < int64(c.acks[k]) {
			tx.Abort()
			return fmt.Errorf("get %d returned v1=%d, below this client's %d acknowledged increments", k, r[1].Int(), c.acks[k])
		}
	}
	return tx.Commit()
}

// write is the read-modify-write transaction: Get, then Update of
// v1 += 1, plus the ledger insert where the workload has one.
func (c *kvClient) write(k int64) error {
	tx := c.eng.Begin()
	pk := []btrim.Value{btrim.Int64(k)}
	if _, err := c.get(tx, k); err != nil {
		tx.Abort()
		return err
	}
	ok, err := tx.Update(kvTable, pk, func(r btrim.Row) (btrim.Row, error) {
		r[1] = btrim.Int64(r[1].Int() + 1)
		return r, nil
	})
	if err == nil && !ok {
		err = fmt.Errorf("%w: update %d: row missing", errReadAnomaly, k)
	}
	if err == nil && c.in.spec.ledger {
		err = tx.Insert(ledgerTable, btrim.Row{btrim.Int64(c.seq), btrim.Int64(k), btrim.Int64(1)})
	}
	if err != nil {
		tx.Abort()
		return err
	}
	if err := tx.Commit(); err != nil {
		if !isRetryable(err) {
			// A commit that failed mid-crash may still be durable.
			c.maybe = append(c.maybe, k)
			c.seq++
		}
		return err
	}
	c.acks[k]++
	c.seq++
	c.ledger++
	return nil
}

// scan returns the kv_cold scan client: back-to-back projections of
// (v1, tag) over the whole table. Each complete scan must return exactly
// the table's cardinality, and Σv1 never decreases from one snapshot to
// the next because every write is an increment.
func (in *kvInstance) scan() scanFunc {
	if !in.spec.scanner {
		return nil
	}
	return func(stop *atomic.Bool, rows *atomic.Int64) error {
		var ct *clientTrace
		if in.st.tr != nil {
			ct = in.st.tr.newClientTrace()
			defer ct.close()
		}
		eng := in.st.clientEngine(ct)
		for !stop.Load() {
			n, sum, complete, err := in.scanOnce(eng, ct, stop, rows)
			if err != nil {
				return err
			}
			if !complete {
				break
			}
			in.scans++
			if n != in.rows {
				// At the seed commit a batch scan that runs beside pack and
				// un-freeze can miss or repeat rows (CHANGES.md, README
				// "Known limits"). The benchmark counts such scans as
				// driver.scan_anomaly_frac instead of failing, so that the
				// workload stays runnable; a scan that is off by more than
				// a tenth of the table is still an error.
				in.anomalies++
				if off := n - in.rows; off > in.rows/10 || off < -in.rows/10 {
					return fmt.Errorf("scan returned %d rows, table has %d", n, in.rows)
				}
				continue
			}
			if sum < in.lastSum {
				return fmt.Errorf("scan Σv1 went from %d to %d", in.lastSum, sum)
			}
			in.lastSum = sum
		}
		return nil
	}
}

func (in *kvInstance) scanOnce(eng sql.Engine, ct *clientTrace, stop *atomic.Bool, rows *atomic.Int64) (n, sum int64, complete bool, err error) {
	if ct != nil {
		ct.begin()
		defer ct.end()
	}
	tx := eng.Begin()
	complete = true
	cols := []string{"v1"}
	if in.spec.withTag {
		cols = append(cols, "tag")
	}
	err = tx.ScanBatches(kvTable, cols, 0, func(b *btrim.Batch) bool {
		for _, v := range b.Cols[0].I64 {
			sum += v
		}
		n += int64(b.Len())
		if rows != nil {
			rows.Add(int64(b.Len()))
		}
		if stop != nil && stop.Load() {
			complete = false
			return false
		}
		return true
	})
	if err != nil {
		tx.Abort()
		return 0, 0, false, err
	}
	return n, sum, complete, tx.Commit()
}

// verify checks the table against the oracle: every key's v1 equals the
// increments acknowledged to any client, give or take the ones whose
// outcome a crash left unknown; the ledger holds exactly one row per
// acknowledged increment and sums to the balances.
func (in *kvInstance) verify() error {
	want := make([]int64, in.rows)
	slack := make(map[int64]int64)
	var ledgerWant, ledgerSlack int64
	for _, c := range in.clients {
		if c == nil {
			continue
		}
		for k, n := range c.acks {
			want[k] += int64(n)
		}
		for _, k := range c.maybe {
			slack[k]++
		}
		ledgerWant += c.ledger
		ledgerSlack += int64(len(c.maybe))
	}

	got := make([]int64, in.rows)
	seen := make([]bool, in.rows)
	var n int64
	err := in.st.db.View(func(tx *btrim.STx) error {
		return tx.ScanBatches(kvTable, []string{"id", "v1"}, 0, func(b *btrim.Batch) bool {
			ids, v1 := b.Cols[0].I64, b.Cols[1].I64
			for i, id := range ids {
				if id >= 0 && id < in.rows && !seen[id] {
					seen[id], got[id] = true, v1[i]
				}
				n++
			}
			return true
		})
	})
	if err != nil {
		return fmt.Errorf("verify scan: %w", err)
	}
	if n != in.rows {
		return fmt.Errorf("verify: scan returned %d rows, table has %d", n, in.rows)
	}
	for k := range want {
		if !seen[k] {
			return fmt.Errorf("verify: key %d missing", k)
		}
		if got[k] < want[k] || got[k] > want[k]+slack[int64(k)] {
			return fmt.Errorf("verify: key %d has v1=%d, acknowledged increments %d (+%d unknown)", k, got[k], want[k], slack[int64(k)])
		}
	}
	if !in.spec.ledger {
		return nil
	}
	perAccount := make([]int64, in.rows)
	var ledgerRows int64
	err = in.st.db.View(func(tx *btrim.STx) error {
		return tx.ScanBatches(ledgerTable, []string{"account", "amount"}, 0, func(b *btrim.Batch) bool {
			for i, a := range b.Cols[0].I64 {
				perAccount[a] += b.Cols[1].I64[i]
			}
			ledgerRows += int64(b.Len())
			return true
		})
	})
	if err != nil {
		return fmt.Errorf("verify ledger scan: %w", err)
	}
	if ledgerRows < ledgerWant || ledgerRows > ledgerWant+ledgerSlack {
		return fmt.Errorf("verify: ledger has %d rows, acknowledged %d (+%d unknown)", ledgerRows, ledgerWant, ledgerSlack)
	}
	for k := range perAccount {
		if perAccount[k] != got[k] {
			return fmt.Errorf("verify: account %d balance %d but its ledger rows sum to %d (a transaction is partially visible)", k, got[k], perAccount[k])
		}
	}
	return nil
}

// The API workloads have no front end.
func (in *kvInstance) startFrontEnd() error     { return nil }
func (in *kvInstance) stopFrontEnd()            {}
func (in *kvInstance) frontEnd() frontEndCounts { return frontEndCounts{} }

func (in *kvInstance) scanAnomalies() (int64, int64) { return in.anomalies, in.scans }
