package chaos

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/row"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/sql"
)

// client is one front end to the node: its own transactions, or SQL
// over a loopback TCP connection.
type client interface {
	// transfer moves amt from account a to account b (a < b, the lock
	// order every transfer follows). atCommit reports that err came from
	// the commit itself, whose outcome is then unknown.
	transfer(a, b, amt int64) (atCommit bool, err error)
	// add commits qty += delta on one key in its own transaction.
	add(key, delta int64) error
	// rows reads the qty of every present key in [1, next); partial
	// reports a read that skipped an unavailable shard.
	rows(next int64) (view map[int64]int64, partial bool, err error)
	close()
}

func (h *harness) client() client {
	if h.wire {
		return &wireClient{h: h}
	}
	return nodeClient{h}
}

// nodeClient runs each statement as a shard.Txn on the node itself.
type nodeClient struct{ h *harness }

func (c nodeClient) transfer(a, b, amt int64) (bool, error) {
	return c.commit([2]int64{a, -amt}, [2]int64{b, amt})
}

func (c nodeClient) add(key, delta int64) error {
	_, err := c.commit([2]int64{key, delta})
	return err
}

// commit applies each (key, delta) in one transaction.
func (c nodeClient) commit(deltas ...[2]int64) (bool, error) {
	tx := c.h.node.Begin()
	for _, d := range deltas {
		found, err := tx.Update(table, pk(d[0]), func(r row.Row) (row.Row, error) {
			r[2] = row.Int64(r[2].Int() + d[1])
			return r, nil
		})
		if err == nil && !found {
			err = fmt.Errorf("key %d missing", d[0])
		}
		if err != nil {
			tx.Abort()
			return false, err
		}
	}
	err := tx.Commit()
	return err != nil, err
}

func (c nodeClient) rows(next int64) (map[int64]int64, bool, error) {
	view := make(map[int64]int64)
	for key := int64(1); key < next; key++ {
		qty, ok, err := c.h.get(key)
		if err != nil {
			return nil, false, fmt.Errorf("key %d: %w", key, err)
		}
		if ok {
			view[key] = qty
		}
	}
	return view, false, nil
}

// get reads one key's qty on a fresh snapshot, retrying core.ErrRetry:
// pack and GC keep relocating rows between stores (also on a read-only
// shard), and a lookup that chases too many relocations is for the
// caller to retry, on a fresh snapshot, which sees the settled location.
func (h *harness) get(key int64) (int64, bool, error) {
	for try := 0; ; try++ {
		tx := h.node.Begin()
		r, ok, err := tx.Get(table, pk(key))
		var qty int64
		if ok && err == nil {
			qty = r[2].Int()
		}
		tx.Abort()
		if !errors.Is(err, core.ErrRetry) {
			return qty, ok, err
		}
		if try == 50 {
			// Persistent across fresh snapshots: the location layers have
			// diverged; name the stuck layer.
			return 0, false, fmt.Errorf("%w (%s)", err, h.node.Engine(h.shardOf(key)).ExplainRow(table, pk(key)))
		}
		runtime.Gosched()
	}
}

func (nodeClient) close() {}

// wireClient speaks SQL to the node's server, re-dialing when the
// connection breaks.
type wireClient struct {
	h   *harness
	cli *server.Client
}

func (c *wireClient) exec(format string, args ...any) (*sql.Result, error) {
	if c.cli == nil {
		cli, err := server.Dial(c.h.addr)
		if err != nil {
			return nil, err
		}
		c.cli = cli
	}
	res, err := c.cli.Exec(fmt.Sprintf(format, args...))
	var ne net.Error
	if errors.As(err, &ne) || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		c.drop()
	}
	return res, err
}

// drop closes the connection; the next statement re-dials.
func (c *wireClient) drop() {
	c.cli.Close()
	c.cli = nil
	c.h.mu.Lock()
	c.h.res.Redials++
	c.h.mu.Unlock()
}

func (c *wireClient) transfer(a, b, amt int64) (bool, error) {
	if _, err := c.exec(`BEGIN`); err != nil {
		return false, err
	}
	for _, d := range [2][2]int64{{a, -amt}, {b, amt}} {
		if _, err := c.exec(`UPDATE chaos SET qty = qty + %d WHERE id = %d`, d[1], d[0]); err != nil {
			_, _ = c.exec(`ROLLBACK`)
			return false, err
		}
	}
	_, err := c.exec(`COMMIT`)
	return err != nil, err
}

func (c *wireClient) add(key, delta int64) error {
	_, err := c.exec(`UPDATE chaos SET qty = qty + %d WHERE id = %d`, delta, key)
	return err
}

func (c *wireClient) rows(next int64) (map[int64]int64, bool, error) {
	res, err := c.exec(`SELECT id, qty FROM chaos`)
	if err != nil {
		return nil, false, err
	}
	view := make(map[int64]int64, len(res.Rows))
	for _, r := range res.Rows {
		view[r[0].Int()] = r[1].Int()
	}
	return view, res.Warning != "", nil
}

func (c *wireClient) close() {
	if c.cli != nil {
		c.cli.Close()
		c.cli = nil
	}
}

// load is a set of transfer clients running until ended.
type load struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

// startLoad starts the transfer clients; with drops, wire clients also
// hang up mid-transaction (on their first transfer and one in 40).
func (h *harness) startLoad(drops bool) *load {
	l := &load{stop: make(chan struct{})}
	for w := 0; w < workers; w++ {
		l.wg.Add(1)
		go h.transfers(rand.New(rand.NewSource(h.rng.Int63())), drops, l)
	}
	return l
}

func (l *load) end() {
	close(l.stop)
	l.wg.Wait()
}

func (h *harness) transfers(rng *rand.Rand, drops bool, l *load) {
	defer l.wg.Done()
	c := h.client()
	defer c.close()
	for op := 0; ; op++ {
		select {
		case <-l.stop:
			return
		default:
		}
		a, b, ok := h.pickPair(rng)
		if !ok {
			continue
		}
		amt := 1 + rng.Int63n(10)
		if wc, isWire := c.(*wireClient); isWire && drops && (op == 0 || rng.Intn(40) == 0) {
			// The server must abort the open transaction on hangup.
			if _, err := wc.exec(`BEGIN`); err == nil && wc.cli != nil {
				_, _ = wc.exec(`UPDATE chaos SET qty = qty - %d WHERE id = %d`, amt, a)
			}
			if wc.cli != nil {
				wc.drop()
			}
			continue
		}
		atCommit, err := c.transfer(a, b, amt)
		h.mu.Lock()
		switch {
		case err == nil:
			h.m.rows[a] -= amt
			h.m.rows[b] += amt
			h.res.Commits++
			if h.down {
				h.res.SurvivorCommits++
			}
		case atCommit:
			h.res.FailedCommits++
			h.m.taint[a], h.m.taint[b] = true, true
		default:
			h.res.CleanAborts++
		}
		h.countErr(err)
		h.mu.Unlock()
	}
}

// countErr counts the typed failures a dead or parked shard must
// produce: shard.ErrShardDown on the node, the retryable bit on the
// wire. It reports whether err was one of them. h.mu must be held.
func (h *harness) countErr(err error) bool {
	switch {
	case server.IsRetryable(err):
		h.res.RetryableErrors++
	case errors.Is(err, shard.ErrShardDown):
		h.res.DeadShardFailures++
	default:
		return false
	}
	return true
}

// pickPair picks two distinct accounts in ascending order, on two
// shards or on one per the cross-shard share.
func (h *harness) pickPair(rng *rand.Rand) (int64, int64, bool) {
	cross := rng.Intn(100) < crossPct
	a := 1 + rng.Int63n(accounts)
	for try := 0; try < 4*accounts; try++ {
		b := 1 + rng.Int63n(accounts)
		if b != a && (h.shardOf(a) != h.shardOf(b)) == cross {
			return min(a, b), max(a, b), true
		}
	}
	return 0, 0, false
}

// commits reads the commit counter while clients run.
func (h *harness) commits() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.res.Commits
}
