package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/btrim"
	"repro/internal/sql"
)

// The admission-control and isolation tests: statement deadlines,
// connection caps, idle reaping, panic containment, and oversized
// frames — each must degrade one statement or one connection, never
// the server.

func startServerWith(t *testing.T, eng sql.Engine, cfg Config) (*Server, string) {
	t.Helper()
	srv := NewWithConfig(eng, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() { shutdownServer(t, srv, served) })
	return srv, ln.Addr().String()
}

func shutdownServer(t *testing.T, srv *Server, served chan error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("Serve did not return after Shutdown")
	}
}

// slowEngine delays every vectorized scan, so a statement deadline can
// expire mid-statement deterministically.
type slowEngine struct {
	sql.Engine
	delay time.Duration
}

func (e slowEngine) Begin() sql.Txn { return slowTxn{e.Engine.Begin(), e.delay} }

type slowTxn struct {
	sql.Txn
	delay time.Duration
}

func (t slowTxn) ScanBatches(table string, cols []string, batchRows int, fn func(*btrim.Batch) bool) error {
	time.Sleep(t.delay)
	return t.Txn.ScanBatches(table, cols, batchRows, fn)
}

func TestServerStatementDeadline(t *testing.T) {
	eng := slowEngine{memEngine(t, 1), 80 * time.Millisecond}
	_, addr := startServerWith(t, eng, Config{StatementTimeout: 25 * time.Millisecond})
	c := dial(t, addr)
	clientExec(t, c,
		`CREATE TABLE t (a INT, PRIMARY KEY (a))`,
		`INSERT INTO t VALUES (1)`, // point writes are not slowed
	)

	// The scan outlives its deadline: typed, retryable, autocommit
	// rolled back.
	_, err := c.Exec(`SELECT a FROM t`)
	if !errors.Is(err, sql.ErrDeadlineExceeded) {
		t.Fatalf("slow scan: %v, want ErrDeadlineExceeded", err)
	}
	if !IsRetryable(err) {
		t.Fatalf("deadline error not marked retryable: %v", err)
	}

	// Inside an explicit transaction the expired statement aborts the
	// block like any other failure.
	clientExec(t, c, `BEGIN`, `INSERT INTO t VALUES (2)`)
	if _, err := c.Exec(`SELECT a FROM t`); !errors.Is(err, sql.ErrDeadlineExceeded) {
		t.Fatalf("slow scan in txn: %v", err)
	}
	if _, err := c.Exec(`SELECT a FROM t WHERE a = 2`); !errors.Is(err, sql.ErrTxnAborted) {
		t.Fatalf("statement after deadline abort: %v, want ErrTxnAborted", err)
	}
	clientExec(t, c, `ROLLBACK`)
	// Point lookups dodge the slow scan path: the aborted INSERT is gone.
	if res := clientExec(t, c, `SELECT a FROM t WHERE a = 2`); len(res.Rows) != 0 {
		t.Fatalf("aborted insert visible: %+v", res.Rows)
	}
}

func TestServerMaxConns(t *testing.T) {
	srv, addr := startServerWith(t, memEngine(t, 1), Config{MaxConns: 1})
	c1 := dial(t, addr)
	clientExec(t, c1, `CREATE TABLE t (a INT, PRIMARY KEY (a))`) // ensures c1 is registered

	// The second connection is answered with a typed, retryable
	// over-capacity error on its first statement.
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	_, err = c2.Exec(`SELECT a FROM t WHERE a = 1`)
	if !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("over-capacity statement: %v, want ErrOverCapacity", err)
	}
	if !IsRetryable(err) {
		t.Fatalf("over-capacity error not marked retryable: %v", err)
	}
	if got := srv.Stats().OverCapacityRejects; got != 1 {
		t.Fatalf("over-capacity rejects = %d, want 1", got)
	}

	// A slot frees when c1 leaves; the retry then succeeds.
	_ = c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().ActiveSessions > 0 {
		if time.Now().After(deadline) {
			t.Fatal("session not reaped after close")
		}
		time.Sleep(2 * time.Millisecond)
	}
	c3 := dial(t, addr)
	clientExec(t, c3, `INSERT INTO t VALUES (1)`)
}

func TestServerIdleReap(t *testing.T) {
	srv, addr := startServerWith(t, memEngine(t, 1), Config{IdleTimeout: 50 * time.Millisecond})
	c := dial(t, addr)
	clientExec(t, c,
		`CREATE TABLE t (a INT, PRIMARY KEY (a))`,
		`BEGIN`, `INSERT INTO t VALUES (7)`,
	)

	// Go quiet past the idle timeout: the server reaps the connection
	// and the open transaction aborts exactly as on client hangup.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().IdleReaps == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle connection never reaped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := srv.Stats()
	if st.ActiveSessions != 0 || st.DrainAborts != 1 {
		t.Fatalf("after reap: %+v, want 0 active sessions and 1 drain abort", st)
	}
	if _, err := c.Exec(`SELECT a FROM t`); err == nil {
		t.Fatal("reaped connection still served a statement")
	}

	c2 := dial(t, addr)
	if res := clientExec(t, c2, `SELECT a FROM t WHERE a = 7`); len(res.Rows) != 0 {
		t.Fatalf("reaped txn leaked rows: %+v", res.Rows)
	}
}

// panicEngine panics on a marker row, simulating an executor bug.
type panicEngine struct{ sql.Engine }

func (e panicEngine) Begin() sql.Txn { return panicTxn{e.Engine.Begin()} }

type panicTxn struct{ sql.Txn }

func (t panicTxn) Insert(table string, r btrim.Row) error {
	if len(r) > 0 && r[0].Int() == 666 {
		panic("injected executor panic")
	}
	return t.Txn.Insert(table, r)
}

func TestServerPanicIsolation(t *testing.T) {
	srv, addr := startServerWith(t, panicEngine{memEngine(t, 1)}, Config{})
	c := dial(t, addr)
	clientExec(t, c,
		`CREATE TABLE t (a INT, PRIMARY KEY (a))`,
		`INSERT INTO t VALUES (1)`,
	)

	// The panicking statement becomes a typed internal error; the
	// connection and the rest of the server survive.
	_, err := c.Exec(`INSERT INTO t VALUES (666)`)
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("panicking statement: %v, want ErrInternal", err)
	}
	if IsRetryable(err) {
		t.Fatalf("internal error must not be retryable: %v", err)
	}
	if res := clientExec(t, c, `SELECT a FROM t WHERE a = 1`); len(res.Rows) != 1 {
		t.Fatalf("session unusable after recovered panic: %+v", res.Rows)
	}

	// A panic mid-transaction resets the session: the block is gone and
	// its writes rolled back.
	clientExec(t, c, `BEGIN`, `INSERT INTO t VALUES (2)`)
	if _, err := c.Exec(`INSERT INTO t VALUES (666)`); !errors.Is(err, ErrInternal) {
		t.Fatalf("panic in txn: %v", err)
	}
	if _, err := c.Exec(`COMMIT`); !errors.Is(err, sql.ErrNoTxn) {
		t.Fatalf("COMMIT after panic reset: %v, want ErrNoTxn", err)
	}
	if res := clientExec(t, c, `SELECT a FROM t WHERE a = 2`); len(res.Rows) != 0 {
		t.Fatalf("panicked txn leaked rows: %+v", res.Rows)
	}
	if got := srv.Stats().PanicRecoveries; got < 2 {
		t.Fatalf("panic recoveries = %d, want >= 2", got)
	}
}

func TestServerOversizedFrameSurvival(t *testing.T) {
	srv, addr := startServerWith(t, memEngine(t, 1), Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriterSize(conn, 1<<20)
	br := bufio.NewReader(conn)

	// A frame over the limit: header plus MaxFrame+1 payload bytes. The
	// server must drain it, answer with the typed error, and keep the
	// connection frame-aligned.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := bw.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, 1<<20)
	for sent := 0; sent < MaxFrame+1; {
		n := len(junk)
		if rest := MaxFrame + 1 - sent; rest < n {
			n = rest
		}
		if _, err := bw.Write(junk[:n]); err != nil {
			t.Fatal(err)
		}
		sent += n
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := readFrame(br, nil)
	if err != nil {
		t.Fatalf("reading oversize response: %v", err)
	}
	if _, err := decodeResponse(resp); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v, want ErrFrameTooLarge", err)
	}

	// The same connection still serves ordinary statements.
	if err := writeFrame(bw, []byte(`SHOW TABLES`)); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err = readFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := decodeResponse(resp); err != nil || res == nil {
		t.Fatalf("statement after oversize: res=%v err=%v", res, err)
	}
	if got := srv.Stats().OversizedFrames; got != 1 {
		t.Fatalf("oversized frames = %d, want 1", got)
	}
}

// TestServerNoGoroutineLeak churns connections through every limit —
// rejections, reaps, normal closes — then shuts down and requires the
// goroutine count to return to its baseline.
func TestServerNoGoroutineLeak(t *testing.T) {
	eng := memEngine(t, 1)
	baseline := runtime.NumGoroutine()

	srv := NewWithConfig(eng, Config{
		MaxConns:         4,
		StatementTimeout: time.Second,
		IdleTimeout:      100 * time.Millisecond,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	first, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Exec(`CREATE TABLE t (a INT, PRIMARY KEY (a))`); err != nil {
		t.Fatal(err)
	}

	// Concurrent churn: more dialers than slots, so some are rejected;
	// one dialer goes idle and is reaped.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				return
			}
			defer c.Close()
			if w == 0 {
				time.Sleep(300 * time.Millisecond) // idle: reaped server-side
				return
			}
			for i := 0; i < 5; i++ {
				_, err := c.Exec(`SELECT a FROM t WHERE a = 1`)
				if err != nil && !IsRetryable(err) {
					return // transport error after a reject: expected
				}
			}
		}(w)
	}
	wg.Wait()
	_ = first.Close()

	shutdownServer(t, srv, served)

	// Every accept, session, and reject goroutine must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
