package server

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/btrim"
	"repro/internal/sql"
)

// memEngine opens a fresh in-memory database of the given shard count.
func memEngine(t *testing.T, shards int) sql.Engine {
	t.Helper()
	db, err := btrim.Open(btrim.Config{IMRSCacheBytes: 16 << 20, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	return sql.Wrap(db)
}

// forShards runs fn against a server over a one-shard and over a
// three-shard database: what crosses the wire must not depend on how
// many engines sit behind it.
func forShards(t *testing.T, fn func(t *testing.T, srv *Server, addr string)) {
	for _, n := range []int{1, 3} {
		t.Run("shards="+itoa(n), func(t *testing.T) {
			srv, addr := startServer(t, n)
			fn(t, srv, addr)
		})
	}
}

// startServer runs a server over a fresh in-memory database and returns
// its address plus the server handle.
func startServer(t *testing.T, shards int) (*Server, string) {
	t.Helper()
	srv := New(memEngine(t, shards))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
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
	})
	return srv, ln.Addr().String()
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func clientExec(t *testing.T, c *Client, stmts ...string) *sql.Result {
	t.Helper()
	var last *sql.Result
	for _, stmt := range stmts {
		res, err := c.Exec(stmt)
		if err != nil {
			t.Fatalf("exec %q: %v", stmt, err)
		}
		last = res
	}
	return last
}

func TestServerEndToEnd(t *testing.T) {
	forShards(t, func(t *testing.T, srv *Server, addr string) {
		c := dial(t, addr)

		clientExec(t, c,
			`CREATE TABLE users (id INT, name STRING, score FLOAT, PRIMARY KEY (id))`,
			`INSERT INTO users VALUES (1, 'ada', 99.5), (2, 'grace', 88)`,
		)
		res := clientExec(t, c, `SELECT name, score FROM users WHERE id = 1`)
		if len(res.Rows) != 1 || res.Rows[0][0].Str() != "ada" || res.Rows[0][1].Float() != 99.5 {
			t.Fatalf("point select over wire = %+v", res.Rows)
		}
		res = clientExec(t, c, `SELECT id FROM users WHERE score > 0`)
		if len(res.Rows) != 2 {
			t.Fatalf("range select over wire = %+v", res.Rows)
		}
		res = clientExec(t, c, `UPDATE users SET score = score + 1 WHERE id = 2`)
		if res.Affected != 1 {
			t.Fatalf("update affected = %d", res.Affected)
		}
		res = clientExec(t, c, `DELETE FROM users WHERE id = 1`)
		if res.Affected != 1 {
			t.Fatalf("delete affected = %d", res.Affected)
		}

		st := srv.Stats()
		if st.ActiveSessions != 1 || st.TotalSessions != 1 || st.Statements < 6 {
			t.Fatalf("stats = %+v", st)
		}
		if len(st.Sessions) != 1 || st.Sessions[0].Statements < 6 {
			t.Fatalf("session stats = %+v", st.Sessions)
		}
	})
}

func TestServerTypedErrors(t *testing.T) {
	forShards(t, func(t *testing.T, _ *Server, addr string) {
		c := dial(t, addr)
		clientExec(t, c,
			`CREATE TABLE t (a INT, PRIMARY KEY (a))`,
			`INSERT INTO t VALUES (1)`,
		)
		if _, err := c.Exec(`INSERT INTO t VALUES (1)`); !errors.Is(err, btrim.ErrDuplicateKey) {
			t.Fatalf("duplicate key over wire: %v", err)
		}
		if _, err := c.Exec(`COMMIT`); !errors.Is(err, sql.ErrNoTxn) {
			t.Fatalf("stray COMMIT over wire: %v", err)
		}

		// Abort the txn server-side, check the typed aborted error crosses
		// the wire on the next statement.
		clientExec(t, c, `BEGIN`)
		if _, err := c.Exec(`INSERT INTO t VALUES (1)`); !errors.Is(err, btrim.ErrDuplicateKey) {
			t.Fatalf("dup in txn: %v", err)
		}
		if _, err := c.Exec(`SELECT * FROM t`); !errors.Is(err, sql.ErrTxnAborted) {
			t.Fatalf("aborted txn over wire: %v", err)
		}
		clientExec(t, c, `ROLLBACK`)
		if _, err := c.Exec(`SELECT * FROM t`); err != nil {
			t.Fatalf("session unusable after rollback: %v", err)
		}
	})
}

func TestServerSessionIsolation(t *testing.T) {
	forShards(t, func(t *testing.T, _ *Server, addr string) {
		a, b := dial(t, addr), dial(t, addr)
		clientExec(t, a, `CREATE TABLE t (a INT, PRIMARY KEY (a))`)

		// Txn state is per session: a BEGIN on conn A does not open one on B.
		clientExec(t, a, `BEGIN`, `INSERT INTO t VALUES (1)`)
		if _, err := b.Exec(`COMMIT`); !errors.Is(err, sql.ErrNoTxn) {
			t.Fatalf("txn leaked across sessions: %v", err)
		}
		// No dirty reads: A's uncommitted insert is invisible to B.
		if res := clientExec(t, b, `SELECT * FROM t`); len(res.Rows) != 0 {
			t.Fatalf("dirty read: %+v", res.Rows)
		}
		clientExec(t, a, `COMMIT`)
		if res := clientExec(t, b, `SELECT * FROM t`); len(res.Rows) != 1 {
			t.Fatalf("committed row invisible: %+v", res.Rows)
		}
	})
}

// TestServerDisconnectAbortsTxn: a client that drops mid-transaction
// must leave nothing behind.
func TestServerDisconnectAbortsTxn(t *testing.T) {
	forShards(t, func(t *testing.T, srv *Server, addr string) {
		a := dial(t, addr)
		clientExec(t, a, `CREATE TABLE t (a INT, PRIMARY KEY (a))`)

		b := dial(t, addr)
		clientExec(t, b, `BEGIN`, `INSERT INTO t VALUES (42)`)
		_ = b.Close()

		// Wait for the server to reap the session.
		deadline := time.Now().Add(5 * time.Second)
		for srv.Stats().ActiveSessions > 1 {
			if time.Now().After(deadline) {
				t.Fatal("session not reaped after disconnect")
			}
			time.Sleep(5 * time.Millisecond)
		}
		if res := clientExec(t, a, `SELECT * FROM t`); len(res.Rows) != 0 {
			t.Fatalf("disconnected txn leaked: %+v", res.Rows)
		}
		if srv.Stats().DrainAborts != 1 {
			t.Fatalf("drain aborts = %d, want 1", srv.Stats().DrainAborts)
		}
	})
}

// TestServerMultiKeyTxn: explicit transactions that write adjacent keys,
// which on several shards usually land on different ones — the node's
// cross-shard 2PC runs underneath the SQL layer — and a scan that reads
// them all back.
func TestServerMultiKeyTxn(t *testing.T) {
	forShards(t, func(t *testing.T, _ *Server, addr string) {
		c := dial(t, addr)
		clientExec(t, c, `CREATE TABLE t (a INT, v STRING, PRIMARY KEY (a))`)
		for i := 0; i < 20; i += 2 {
			clientExec(t, c, `BEGIN`, insertStmt(i), insertStmt(i+1), `COMMIT`)
		}
		res := clientExec(t, c, `SELECT a FROM t WHERE a >= 0`)
		if len(res.Rows) != 20 {
			t.Fatalf("rows = %d, want 20", len(res.Rows))
		}
	})
}

func insertStmt(i int) string {
	return `INSERT INTO t VALUES (` + itoa(i) + `, 'v')`
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}
