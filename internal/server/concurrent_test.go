package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/btrim"
	"repro/internal/sql"
)

// TestConcurrentSessionsMixedDML is the multi-session stress test: N TCP
// clients hammer one table with mixed DML (inserts, blind and arithmetic
// updates, deletes, point and range reads) while a reader asserts
// snapshot isolation. Run under -race this also checks the server's
// per-connection state for data races.
func TestConcurrentSessionsMixedDML(t *testing.T) {
	_, addr := startServer(t, 1)
	setup := dial(t, addr)
	clientExec(t, setup,
		`CREATE TABLE acct (id INT, owner STRING, bal INT, PRIMARY KEY (id))`,
		`CREATE TABLE audit (id INT, who INT, PRIMARY KEY (id))`,
	)
	// One counter row per worker: concurrent `bal = bal + 1` increments
	// must never be lost.
	const workers = 8
	const iters = 40
	for w := 0; w < workers; w++ {
		clientExec(t, setup, fmt.Sprintf(
			`INSERT INTO acct VALUES (%d, 'w%d', 0)`, w, w))
	}

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			base := 1000 + w*iters
			for i := 0; i < iters; i++ {
				// Increment own counter inside an explicit txn together with
				// an audit insert; later delete the audit row autocommit.
				if _, err := c.Exec(`BEGIN`); err != nil {
					errCh <- err
					return
				}
				if _, err := c.Exec(fmt.Sprintf(
					`UPDATE acct SET bal = bal + 1 WHERE id = %d`, w)); err != nil {
					errCh <- err
					return
				}
				if _, err := c.Exec(fmt.Sprintf(
					`INSERT INTO audit VALUES (%d, %d)`, base+i, w)); err != nil {
					errCh <- err
					return
				}
				if _, err := c.Exec(`COMMIT`); err != nil {
					errCh <- err
					return
				}
				if i%2 == 0 {
					if _, err := c.Exec(fmt.Sprintf(
						`DELETE FROM audit WHERE id = %d`, base+i)); err != nil {
						errCh <- err
						return
					}
				}
				if _, err := c.Exec(fmt.Sprintf(
					`SELECT bal FROM acct WHERE id = %d`, w)); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}

	// Reader: the audit insert and the counter increment commit
	// atomically, so a snapshot must never observe SUM-style drift —
	// every scan sees bal values that are each >= 0 and <= iters, and
	// never a torn row.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		c, err := Dial(addr)
		if err != nil {
			errCh <- err
			return
		}
		defer c.Close()
		for i := 0; i < 50; i++ {
			res, err := c.Exec(`SELECT id, bal FROM acct WHERE bal >= 0`)
			if err != nil {
				errCh <- err
				return
			}
			for _, r := range res.Rows {
				if b := r[1].Int(); b < 0 || b > iters {
					errCh <- fmt.Errorf("impossible balance %d for id %d", b, r[0].Int())
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	<-readerDone
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// No increment lost: every worker's counter reached exactly iters.
	res := clientExec(t, setup, `SELECT id, bal FROM acct WHERE id >= 0`)
	if len(res.Rows) != workers {
		t.Fatalf("rows = %d, want %d", len(res.Rows), workers)
	}
	for _, r := range res.Rows {
		if r[1].Int() != iters {
			t.Fatalf("worker %d counter = %d, want %d", r[0].Int(), r[1].Int(), iters)
		}
	}
	// Odd-iteration audit rows survive, even ones were deleted.
	res = clientExec(t, setup, `SELECT id FROM audit WHERE id >= 0`)
	if want := workers * iters / 2; len(res.Rows) != want {
		t.Fatalf("audit rows = %d, want %d", len(res.Rows), want)
	}
}

// TestShutdownWithOpenTransactions: Shutdown while sessions hold open
// transactions must abort them all cleanly — committed work stays,
// uncommitted work vanishes, and Serve returns nil.
func TestShutdownWithOpenTransactions(t *testing.T) {
	db, err := btrim.Open(btrim.Config{IMRSCacheBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	eng := sql.Wrap(db)
	srv := New(eng)
	go func() {
		if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
			t.Error(err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Addr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("server never listened")
		}
		time.Sleep(time.Millisecond)
	}
	addr := srv.Addr().String()

	setup, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	clientExec(t, setup, `CREATE TABLE t (a INT, PRIMARY KEY (a))`,
		`INSERT INTO t VALUES (100)`)

	// Park several sessions mid-transaction with uncommitted writes.
	const open = 4
	for i := 0; i < open; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clientExec(t, c, `BEGIN`, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := srv.Stats().DrainAborts; got != open {
		t.Fatalf("drain aborts = %d, want %d", got, open)
	}
	if srv.Stats().ActiveSessions != 0 {
		t.Fatalf("sessions alive after drain: %d", srv.Stats().ActiveSessions)
	}

	// The engine is still usable in-process, only the committed row is
	// there, and a second Serve on a drained server is refused.
	sess := sql.NewSession(eng)
	res, err := sess.Exec(`SELECT a FROM t WHERE a >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 100 {
		t.Fatalf("post-drain rows = %+v, want just the committed 100", res.Rows)
	}
	if err := srv.ListenAndServe("127.0.0.1:0"); !errors.Is(err, ErrShutdown) {
		t.Fatalf("re-Serve after drain: %v", err)
	}
}
