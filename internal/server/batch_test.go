package server

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/btrim"
	"repro/internal/sql"
)

func TestPipelineRoundTrip(t *testing.T) {
	srv, addr := startServer(t, 1)
	c := dial(t, addr)

	// Everything from CREATE to the final SELECT in one frame.
	results, err := c.ExecBatch(
		`CREATE TABLE kv (k INT, v STRING, PRIMARY KEY (k))`,
		`INSERT INTO kv VALUES (1, 'one'), (2, 'two')`,
		`UPDATE kv SET v = 'uno' WHERE k = 1`,
		`SELECT v FROM kv WHERE k = 1`,
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("statement %d: %v", i, r.Err)
		}
	}
	if results[1].Res.Affected != 2 || results[2].Res.Affected != 1 {
		t.Fatalf("affected = %d, %d", results[1].Res.Affected, results[2].Res.Affected)
	}
	if rows := results[3].Res.Rows; len(rows) != 1 || rows[0][0].Str() != "uno" {
		t.Fatalf("select in batch = %+v", rows)
	}

	st := srv.Stats()
	if st.BatchFrames != 1 || st.BatchedStatements != 4 {
		t.Fatalf("batch stats = %+v", st)
	}
	// Four statements land in the 4..7 bucket.
	if st.BatchSizes[2] != 1 {
		t.Fatalf("batch histogram = %v", st.BatchSizes)
	}
}

func TestPipelinePreparedOverWire(t *testing.T) {
	srv, addr := startServer(t, 1)
	c := dial(t, addr)
	clientExec(t, c,
		`CREATE TABLE acct (id INT, bal INT, PRIMARY KEY (id))`,
		`INSERT INTO acct VALUES (1, 100), (2, 50)`,
	)

	// Prepare once, then run a transfer as one frame: typed binds, no
	// literal quoting, one round trip for the whole transaction.
	p := c.Pipeline()
	p.QueuePrepare("debit", `UPDATE acct SET bal = bal - ? WHERE id = ?`)
	p.QueuePrepare("credit", `UPDATE acct SET bal = bal + ? WHERE id = ?`)
	results, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("prepare over wire: %v / %v", results[0].Err, results[1].Err)
	}
	if results[0].Res.Msg != "PREPARE" || results[0].Res.Affected != 2 {
		t.Fatalf("prepare result = %+v, want 2 params", results[0].Res)
	}

	p.Queue(`BEGIN`)
	p.QueueExecute("debit", btrim.Int64(30), btrim.Int64(1))
	p.QueueExecute("credit", btrim.Int64(30), btrim.Int64(2))
	p.Queue(`COMMIT`)
	if results, err = p.Run(); err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("transfer statement %d: %v", i, r.Err)
		}
	}
	res := clientExec(t, c, `SELECT bal FROM acct WHERE id = 2`)
	if res.Rows[0][0].Int() != 80 {
		t.Fatalf("bal = %v", res.Rows[0][0])
	}

	// Deallocate inside a batch; the name is gone for the next frame.
	p.QueueDeallocate("debit")
	if results, err = p.Run(); err != nil || results[0].Err != nil {
		t.Fatalf("deallocate: %v / %+v", err, results)
	}
	p.QueueExecute("debit", btrim.Int64(1), btrim.Int64(1))
	results, err = p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, sql.ErrNoPrepared) {
		t.Fatalf("execute after deallocate: %v", results[0].Err)
	}

	if st := srv.Stats(); st.PreparedExecs < 2 {
		t.Fatalf("prepared execs rollup = %+v", st)
	}
}

// TestPipelineMidBatchFailure: the failed statement reports its real
// error, everything after it is skipped with the typed sentinel, the
// open transaction is aborted at the failure point, and the connection
// stays frame-aligned for the next request.
func TestPipelineMidBatchFailure(t *testing.T) {
	srv, addr := startServer(t, 1)
	c := dial(t, addr)
	clientExec(t, c,
		`CREATE TABLE t (a INT, PRIMARY KEY (a))`,
		`INSERT INTO t VALUES (1)`,
	)

	results, err := c.ExecBatch(
		`BEGIN`,
		`INSERT INTO t VALUES (2)`,
		`INSERT INTO t VALUES (1)`, // duplicate key: fails here
		`INSERT INTO t VALUES (3)`, // never executes
		`COMMIT`,                   // never executes
	)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("pre-failure statements: %v / %v", results[0].Err, results[1].Err)
	}
	if !errors.Is(results[2].Err, btrim.ErrDuplicateKey) {
		t.Fatalf("failure point: %v", results[2].Err)
	}
	for i := 3; i < 5; i++ {
		if !errors.Is(results[i].Err, ErrStmtSkipped) {
			t.Fatalf("statement %d after failure: %v", i, results[i].Err)
		}
		if IsRetryable(results[i].Err) {
			t.Fatalf("skipped must not carry the retryable bit")
		}
	}

	// The frame left the session in the aborted-block state; plain Exec
	// on the same connection still works and sees it.
	if _, err := c.Exec(`SELECT * FROM t`); !errors.Is(err, sql.ErrTxnAborted) {
		t.Fatalf("after failed batch: %v", err)
	}
	clientExec(t, c, `ROLLBACK`)
	// Nothing from the failed frame is visible.
	if res := clientExec(t, c, `SELECT a FROM t`); len(res.Rows) != 1 {
		t.Fatalf("aborted batch leaked rows: %+v", res.Rows)
	}
	if st := srv.Stats(); st.SkippedStatements != 2 {
		t.Fatalf("skipped statements = %d, want 2", st.SkippedStatements)
	}
}

// TestPipelineConcurrentClients hammers the batch path from several
// connections at once (run under -race via the test-race target): per
// connection the frames must stay aligned and every client sees exactly
// its own results.
func TestPipelineConcurrentClients(t *testing.T) {
	srv, addr := startServer(t, 1)
	setup := dial(t, addr)
	clientExec(t, setup, `CREATE TABLE t (a INT, b INT, PRIMARY KEY (a))`)

	const clients, rounds = 6, 25
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			p := c.Pipeline()
			p.QueuePrepare("ins", `INSERT INTO t VALUES (?, ?)`)
			if results, err := p.Run(); err != nil || results[0].Err != nil {
				errc <- fmt.Errorf("worker %d prepare: %v %+v", w, err, results)
				return
			}
			for i := 0; i < rounds; i++ {
				key := int64(w*rounds + i)
				p.Queue(`BEGIN`)
				p.QueueExecute("ins", btrim.Int64(key), btrim.Int64(int64(w)))
				p.Queue(`COMMIT`)
				p.Queue(fmt.Sprintf(`SELECT b FROM t WHERE a = %d`, key))
				results, err := p.Run()
				if err != nil {
					errc <- fmt.Errorf("worker %d round %d: %v", w, i, err)
					return
				}
				for j, r := range results {
					if r.Err != nil {
						errc <- fmt.Errorf("worker %d round %d stmt %d: %v", w, i, j, r.Err)
						return
					}
				}
				rows := results[3].Res.Rows
				if len(rows) != 1 || rows[0][0].Int() != int64(w) {
					errc <- fmt.Errorf("worker %d round %d read back %+v", w, i, rows)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	if res := clientExec(t, setup, `SELECT a FROM t WHERE a >= 0`); len(res.Rows) != clients*rounds {
		t.Fatalf("rows = %d, want %d", len(res.Rows), clients*rounds)
	}
	st := srv.Stats()
	if st.BatchFrames < clients*rounds || st.PreparedExecs != clients*rounds {
		t.Fatalf("rollup = %+v", st)
	}
	if st.PlanCacheHits == 0 {
		t.Fatalf("transparent cache never hit across rounds: %+v", st)
	}
}

// TestBatchMalformedFrame: a corrupt batch gets one clean error
// response and the connection survives.
func TestBatchMalformedFrame(t *testing.T) {
	_, addr := startServer(t, 1)
	c := dial(t, addr)
	clientExec(t, c, `CREATE TABLE t (a INT, PRIMARY KEY (a))`)

	// Hand-roll a frame that claims 3 messages but carries garbage.
	payload := []byte{batchMagic, 3, 'X', 'Y', 'Z'}
	if err := writeFrame(c.bw, payload); err != nil {
		t.Fatal(err)
	}
	if err := c.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := readFrame(c.br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeResponse(resp); err == nil {
		t.Fatal("malformed batch should answer with an error")
	}
	// Connection still usable.
	if res := clientExec(t, c, `SELECT * FROM t`); len(res.Rows) != 0 {
		t.Fatalf("post-garbage select = %+v", res.Rows)
	}
}

func TestBatchRoundTripCodec(t *testing.T) {
	msgs := []batchMsg{
		{kind: msgSQL, sql: `SELECT 1`},
		{kind: msgPrepare, name: "p", sql: `SELECT a FROM t WHERE a = ?`},
		{kind: msgBind, name: "p", args: []btrim.Value{
			btrim.Int64(-7), btrim.Float64(2.5), btrim.String("x"), btrim.Null,
		}},
		{kind: msgDeallocate, name: "p"},
	}
	buf := []byte{batchMagic, byte(len(msgs))}
	for i := range msgs {
		buf = appendBatchMsg(buf, &msgs[i])
	}
	got, err := decodeBatch(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(msgs) {
		t.Fatalf("decoded %d messages", len(got))
	}
	for i := range msgs {
		if got[i].kind != msgs[i].kind || got[i].sql != msgs[i].sql || got[i].name != msgs[i].name {
			t.Fatalf("message %d = %+v, want %+v", i, got[i], msgs[i])
		}
	}
	if got[2].args[0].Int() != -7 || got[2].args[1].Float() != 2.5 ||
		got[2].args[2].Str() != "x" || !got[2].args[3].IsNull() {
		t.Fatalf("args = %+v", got[2].args)
	}
}

// TestContentionSentinelsCrossWire checks the engine's contention-abort
// sentinels survive response encoding so clients can classify them as
// retry-the-transaction rather than hard failures.
func TestContentionSentinelsCrossWire(t *testing.T) {
	for _, sentinel := range []error{btrim.ErrLockTimeout, btrim.ErrTxnRetry} {
		resp := encodeResponse(nil, nil, fmt.Errorf("update t: %w", sentinel))
		_, err := decodeResponse(resp)
		if err == nil {
			t.Fatalf("%v: decoded as success", sentinel)
		}
		if !errors.Is(err, sentinel) {
			t.Fatalf("decoded error %v does not wrap %v", err, sentinel)
		}
		if !IsRetryable(err) {
			t.Fatalf("%v should carry the retryable bit", sentinel)
		}
	}
}
