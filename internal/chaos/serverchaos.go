package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"repro/btrim"
	"repro/internal/core"
	"repro/internal/row"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/sql"
	"repro/internal/storage/disk"
	"repro/internal/wal"
)

// ServerChaosConfig parameterizes a full-stack chaos run: a concurrent
// SQL transfer workload over real TCP against a sharded node, with
// shard kills, a coordinator crash inside the 2PC commit window, and
// connection drops injected mid-flight.
type ServerChaosConfig struct {
	// Seed drives every random decision.
	Seed int64
	// Shards is the node's shard count (default 4).
	Shards int
	// Keys is the number of accounts (default 64).
	Keys int
	// Workers is the concurrent client-connection count (default 4).
	Workers int
	// Ops is the minimum transfer attempts per worker (default 200);
	// the workload always keeps running until the fault script
	// finishes, whichever is later.
	Ops int
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// ServerChaosResult summarizes a completed run.
type ServerChaosResult struct {
	Commits         int64 // transfers committed over the wire (model applied)
	CleanAborts     int64 // transfers rolled back before COMMIT
	CommitErrors    int64 // COMMIT statements that errored (keys tainted)
	RetryableErrors int64 // wire errors carrying the retryable bit
	PartialSelects  int64 // SELECTs that returned rows plus a partial warning
	Redials         int64 // connections re-established after a drop
	InDoubtResolved int64 // node counter: in-doubt txns settled online
	ReadOnlyExits   int64 // node counter: ReadOnly parks exited in place
	ShardRestarts   int64 // node counter: shards restarted in place
	Tainted         int   // keys excluded from the exact-value check
}

// serverChaos is one run's mutable state.
type serverChaos struct {
	cfg     ServerChaosConfig
	media   []*crashMedia
	journal *wal.MemBackend
	node    *shard.Node
	srv     *server.Server
	addr    string

	mu    sync.Mutex
	model map[int64]int64
	taint map[int64]struct{}

	res ServerChaosResult
}

// ServerChaosRun drives seeded SQL traffic over TCP against a sharded
// node while injecting the failures DESIGN.md §14 promises to survive:
//
//   - a shard crash-halted mid-workload: single-shard writes to healthy
//     shards keep committing, SELECT scans return the healthy shards'
//     rows with a partial-result warning, errors carry the wire's
//     retryable bit, and the shard restarts in place;
//   - a coordinator crashed between prepare and decide, taking a
//     participant with it: the participant recovers parked in
//     recoverable ReadOnly and the node's resolver exits the park
//     online — no process restart — once the coordinator's outcome is
//     discoverable (presumed abort against its recovered log);
//   - a participant crashed after the decision was journaled: its
//     restart replays the commit from the decision journal;
//   - client connections dropped mid-transaction: the server aborts the
//     open transaction; nothing half-applies.
//
// Afterwards the balance invariants are checked through the SQL read
// path (conservation always; exact values for untainted keys), and the
// whole node is crash-recovered once more to check durability.
// A non-nil error is an invariant violation.
func ServerChaosRun(cfg ServerChaosConfig) (ServerChaosResult, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 200
	}
	h := &serverChaos{
		cfg:     cfg,
		journal: wal.NewMemBackend(),
		model:   map[int64]int64{},
		taint:   map[int64]struct{}{},
	}
	h.media = make([]*crashMedia, cfg.Shards)
	for i := range h.media {
		h.media[i] = &crashMedia{
			dev: disk.NewMemDevice(0, 0),
			sys: wal.NewMemBackend(),
			ims: wal.NewMemBackend(),
		}
	}
	if err := h.run(); err != nil {
		return h.res, fmt.Errorf("serverchaos (seed %d): %w", cfg.Seed, err)
	}
	return h.res, nil
}

func (h *serverChaos) logf(format string, args ...any) {
	if h.cfg.Logf != nil {
		h.cfg.Logf(format, args...)
	}
}

// openNode opens (or recovers) the sharded node on the run's media.
func (h *serverChaos) openNode() error {
	n, err := shard.Open(shard.Config{
		Shards: h.cfg.Shards,
		Engine: func(i int) core.Config {
			cfg := core.DefaultConfig()
			cfg.DataDevice = h.media[i].dev
			cfg.SysLogBackend = h.media[i].sys
			cfg.IMRSLogBackend = h.media[i].ims
			cfg.IMRSCacheBytes = 8 << 20
			cfg.PackInterval = time.Hour
			cfg.LockTimeout = 2 * time.Second
			cfg.RetrySleep = func(time.Duration) {}
			return cfg
		},
		JournalBackend:  h.journal,
		ResolveInterval: 20 * time.Millisecond,
		RouteRetrySleep: func(time.Duration) {},
	})
	if err != nil {
		return err
	}
	h.node = n
	return nil
}

// startServer serves the node over a loopback listener.
func (h *serverChaos) startServer() (chan error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h.srv = server.NewWithConfig(sql.Wrap(btrim.WrapNode(h.node)), server.Config{
		MaxConns:         h.cfg.Workers + 4,
		StatementTimeout: 10 * time.Second,
	})
	h.addr = ln.Addr().String()
	errCh := make(chan error, 1)
	go func() { errCh <- h.srv.Serve(ln) }()
	return errCh, nil
}

// shardOf mirrors the node's router (fixed-seed primary-key hash).
func (h *serverChaos) shardOf(id int64) int {
	return int(row.HashValues(row.HashSeed, []row.Value{row.Int64(id)}) % uint64(h.cfg.Shards))
}

// keysOn returns two distinct keys living on the given shard.
func (h *serverChaos) keysOn(s int) (int64, int64) {
	var first int64
	for id := int64(1); id <= int64(h.cfg.Keys); id++ {
		if h.shardOf(id) != s {
			continue
		}
		if first == 0 {
			first = id
			continue
		}
		return first, id
	}
	return first, first
}

// keyOff returns a key NOT on the given shard.
func (h *serverChaos) keyOff(s int) int64 {
	for id := int64(1); id <= int64(h.cfg.Keys); id++ {
		if h.shardOf(id) != s {
			return id
		}
	}
	return 0
}

func (h *serverChaos) run() error {
	if err := h.openNode(); err != nil {
		return err
	}
	errCh, err := h.startServer()
	if err != nil {
		return err
	}

	// Seed the accounts through the wire: the same SQL surface the
	// workload uses.
	admin, err := server.Dial(h.addr)
	if err != nil {
		return err
	}
	if _, err := admin.Exec(`CREATE TABLE bal (id INT, qty INT, PRIMARY KEY (id))`); err != nil {
		return fmt.Errorf("create table: %w", err)
	}
	var ins strings.Builder
	ins.WriteString(`INSERT INTO bal VALUES `)
	for id := int64(1); id <= int64(h.cfg.Keys); id++ {
		if id > 1 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, %d)", id, initialBalance)
		h.model[id] = initialBalance
	}
	if _, err := admin.Exec(ins.String()); err != nil {
		return fmt.Errorf("seed insert: %w", err)
	}

	// Concurrent transfer workload over the wire.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < h.cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h.worker(w, stop)
		}(w)
	}

	// Fault script, driven while the workload runs.
	faultErr := h.injectFaults(admin)
	close(stop)
	wg.Wait()
	if faultErr != nil {
		return faultErr
	}

	// Every shard must be healthy again before the final check: the
	// faults all ended in an in-place restart or an online RO exit.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < h.cfg.Shards; i++ {
		for h.node.Engine(i).HealthState() != core.StateHealthy {
			if time.Now().After(deadline) {
				return fmt.Errorf("shard %d stuck %v after fault script", i, h.node.Engine(i).HealthState())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	c := h.node.Counters()
	h.res.InDoubtResolved = c.InDoubtResolved
	h.res.ReadOnlyExits = c.ReadOnlyExits
	h.res.ShardRestarts = c.ShardRestarts
	if h.res.Commits == 0 {
		return errors.New("no transfer ever committed over the wire")
	}
	if c.CrossShardCommits == 0 {
		return errors.New("no cross-shard 2PC commit happened — the scenario is vacuous")
	}
	if h.res.RetryableErrors == 0 {
		return errors.New("no wire error ever carried the retryable bit")
	}
	if c.ShardRestarts == 0 {
		return errors.New("no shard was ever restarted in place")
	}
	h.logf("workload done: %+v node=%+v", h.res, c)

	// Verify through the SQL read path, over the wire.
	if err := h.verifySQL(admin, false); err != nil {
		return err
	}
	admin.Close()

	// Drain the server, crash the whole node, recover, verify again at
	// the engine level: the committed state must also be durable.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errCh; err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if err := h.node.Halt(); err != nil {
		return fmt.Errorf("halt: %w", err)
	}
	if err := h.openNode(); err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	defer h.node.Close()
	for i := 0; i < h.cfg.Shards; i++ {
		if got := h.node.Engine(i).HealthState(); got != core.StateHealthy {
			return fmt.Errorf("shard %d recovered %v, want healthy", i, got)
		}
	}
	return h.verifyEngine()
}

// worker runs one client connection's transfer loop, redialing on
// transport errors and occasionally dropping its own connection
// mid-transaction to exercise the server-side abort path. It runs at
// least cfg.Ops attempts and keeps going until the fault script closes
// stop, so the faults always land on a live workload.
func (h *serverChaos) worker(w int, stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(h.cfg.Seed + int64(w)*7919))
	cli, err := server.Dial(h.addr)
	if err != nil {
		return
	}
	defer func() {
		if cli != nil {
			cli.Close()
		}
	}()
	for op := 0; ; op++ {
		select {
		case <-stop:
			if op >= h.cfg.Ops {
				return
			}
		default:
		}
		a := int64(1 + rng.Intn(h.cfg.Keys))
		b := int64(1 + rng.Intn(h.cfg.Keys))
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		amt := int64(1 + rng.Intn(10))

		// One transfer in ~40 drops the connection mid-transaction
		// instead of finishing: the server must abort the open block.
		if rng.Intn(40) == 0 {
			if _, err := cli.Exec(`BEGIN`); err == nil {
				_, _ = cli.Exec(fmt.Sprintf(`UPDATE bal SET qty = qty - %d WHERE id = %d`, amt, a))
			}
			cli.Close()
			cli, err = server.Dial(h.addr)
			if err != nil {
				return
			}
			h.bump(&h.res.Redials)
			continue
		}

		// One op in ~10 is a SELECT probe instead of a transfer.
		if rng.Intn(10) == 0 {
			res, err := cli.Exec(`SELECT id, qty FROM bal`)
			if err != nil {
				if cli = h.noteErr(cli, err); cli == nil {
					return
				}
				continue
			}
			if res.Warning != "" {
				h.bump(&h.res.PartialSelects)
			}
			continue
		}

		if _, err := cli.Exec(`BEGIN`); err != nil {
			if cli = h.noteErr(cli, err); cli == nil {
				return
			}
			continue
		}
		failed := false
		for _, stmt := range []string{
			fmt.Sprintf(`UPDATE bal SET qty = qty - %d WHERE id = %d`, amt, a),
			fmt.Sprintf(`UPDATE bal SET qty = qty + %d WHERE id = %d`, amt, b),
		} {
			if _, err := cli.Exec(stmt); err != nil {
				cli = h.noteErr(cli, err)
				failed = true
				break
			}
		}
		if failed {
			if cli == nil {
				return
			}
			_, _ = cli.Exec(`ROLLBACK`)
			h.bump(&h.res.CleanAborts)
			continue
		}
		if _, err := cli.Exec(`COMMIT`); err != nil {
			// Ambiguous: the decide may or may not have landed. Taint.
			h.mu.Lock()
			h.res.CommitErrors++
			h.taint[a] = struct{}{}
			h.taint[b] = struct{}{}
			h.mu.Unlock()
			if cli = h.noteErr(cli, err); cli == nil {
				return
			}
			continue
		}
		h.mu.Lock()
		h.model[a] -= amt
		h.model[b] += amt
		h.res.Commits++
		h.mu.Unlock()
	}
}

// noteErr classifies a statement error, counting the retryable bit, and
// redials when the transport itself broke. Returns the (possibly new,
// possibly nil) client.
func (h *serverChaos) noteErr(cli *server.Client, err error) *server.Client {
	if server.IsRetryable(err) {
		h.bump(&h.res.RetryableErrors)
		return cli
	}
	var ne net.Error
	if errors.As(err, &ne) || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		cli.Close()
		next, derr := server.Dial(h.addr)
		if derr != nil {
			return nil
		}
		h.bump(&h.res.Redials)
		return next
	}
	// Typed non-retryable server errors (aborted txn, sticky read-only,
	// generic) leave the connection usable.
	return cli
}

func (h *serverChaos) bump(p *int64) {
	h.mu.Lock()
	*p++
	h.mu.Unlock()
}

// injectFaults runs the fault script while workers hammer the server:
// (1) kill and restart a shard; (2) crash the coordinator between
// prepare and decide, taking a participant with it, and watch the
// resolver exit the participant's ReadOnly park online; (3) crash a
// participant after the decision journaled and watch its restart replay
// the commit.
func (h *serverChaos) injectFaults(admin *server.Client) error {
	time.Sleep(30 * time.Millisecond) // let the workload get going

	// --- Fault 1: plain shard kill → partial reads → in-place restart.
	victim := h.cfg.Shards - 1
	h.logf("fault 1: killing shard %d", victim)
	if err := h.node.HaltShard(victim); err != nil {
		return fmt.Errorf("halt shard: %w", err)
	}
	// A fan-out SELECT over the admin connection must degrade to a
	// partial result with a warning, not fail.
	res, err := admin.Exec(`SELECT id, qty FROM bal`)
	if err != nil {
		return fmt.Errorf("SELECT with shard %d down: %v", victim, err)
	}
	if res.Warning == "" {
		return fmt.Errorf("SELECT with shard %d down returned no partial-result warning", victim)
	}
	if len(res.Rows) == 0 || len(res.Rows) >= h.cfg.Keys {
		return fmt.Errorf("partial SELECT returned %d rows, want (0, %d)", len(res.Rows), h.cfg.Keys)
	}
	// A single-shard write to a healthy shard must still commit.
	if off := h.keyOff(victim); off != 0 {
		if _, err := admin.Exec(fmt.Sprintf(`UPDATE bal SET qty = qty + 0 WHERE id = %d`, off)); err != nil {
			return fmt.Errorf("healthy-shard write with shard %d down: %v", victim, err)
		}
	}
	// A write routed to the dead shard must fail retryable.
	if on, _ := h.keysOn(victim); on != 0 {
		_, err := admin.Exec(fmt.Sprintf(`UPDATE bal SET qty = qty + 0 WHERE id = %d`, on))
		if err == nil {
			return fmt.Errorf("write to dead shard %d succeeded", victim)
		}
		if !server.IsRetryable(err) {
			return fmt.Errorf("write to dead shard %d not marked retryable: %v", victim, err)
		}
		h.bump(&h.res.RetryableErrors)
	}
	time.Sleep(20 * time.Millisecond)
	if err := h.node.RestartShard(victim); err != nil {
		return fmt.Errorf("restart shard %d: %w", victim, err)
	}
	h.logf("fault 1 done: shard %d restarted", victim)

	// --- Fault 2: coordinator crash inside the commit window. The hook
	// fires on StagePrepared for a cross-shard commit and crash-halts
	// the coordinator AND one participant before the decide is logged.
	// The participant recovers holding an in-doubt prepare; once the
	// coordinator is restarted (its log has no decide → presumed abort)
	// the background resolver must exit the park online.
	type crashed struct{ coord, part int }
	hit := make(chan crashed, 1)
	var once sync.Once
	h.node.SetCommitHook(func(stage shard.CommitStage, coord int, gid uint64, writers []int) {
		if stage != shard.StagePrepared {
			return
		}
		once.Do(func() {
			part := -1
			for _, wsh := range writers {
				if wsh != coord {
					part = wsh
					break
				}
			}
			if part < 0 {
				return
			}
			_ = h.node.HaltShard(coord)
			_ = h.node.HaltShard(part)
			hit <- crashed{coord, part}
		})
	})
	select {
	case c := <-hit:
		h.node.SetCommitHook(nil)
		h.logf("fault 2: crashed coordinator %d and participant %d between prepare and decide", c.coord, c.part)
		// Recover the participant first: the coordinator is still down,
		// so the prepare stays in doubt and the shard parks ReadOnly.
		if err := h.node.RestartShard(c.part); err != nil {
			return fmt.Errorf("restart participant %d: %w", c.part, err)
		}
		st := h.node.Engine(c.part).HealthState()
		hs := h.node.Engine(c.part).Health()
		if st != core.StateReadOnly || !hs.ReadOnlyRecoverable {
			// The in-doubt window is narrow: the prepare may have aborted
			// locally before the halt landed. Not an invariant violation —
			// but note it, since the scenario then didn't bite.
			h.logf("fault 2: participant %d recovered %v (recoverable=%v) — in-doubt window missed", c.part, st, hs.ReadOnlyRecoverable)
		} else {
			// A write routed to the parked shard must be rejected as
			// retryable (recoverable ReadOnly), not permanent. Use a
			// key pair on the parked shard so routing is deterministic.
			h.logf("fault 2: participant %d parked recoverable ReadOnly", c.part)
		}
		// Restart the coordinator; its recovered log (complete index, no
		// decide) lets the resolver presume abort and un-park the
		// participant online — the acceptance demo.
		if err := h.node.RestartShard(c.coord); err != nil {
			return fmt.Errorf("restart coordinator %d: %w", c.coord, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for h.node.Engine(c.part).HealthState() != core.StateHealthy {
			h.node.ResolvePending()
			if time.Now().After(deadline) {
				return fmt.Errorf("participant %d never exited ReadOnly: %v", c.part, h.node.Engine(c.part).HealthState())
			}
			time.Sleep(5 * time.Millisecond)
		}
		// The un-parked shard must accept writes again over the wire,
		// with no process restart.
		if on, _ := h.keysOn(c.part); on != 0 {
			if _, err := admin.Exec(fmt.Sprintf(`UPDATE bal SET qty = qty + 0 WHERE id = %d`, on)); err != nil {
				return fmt.Errorf("write to un-parked shard %d: %v", c.part, err)
			}
		}
		h.logf("fault 2 done: participant %d exited ReadOnly online and accepts writes", c.part)
	case <-time.After(5 * time.Second):
		h.node.SetCommitHook(nil)
		return errors.New("fault 2: no cross-shard commit reached the prepared stage")
	}

	// --- Fault 3: participant crash after the decision journaled. The
	// decide is durable (coordinator log + node journal) but the
	// participant's phase-3 commit may not be; its restart must replay
	// the commit via the journal, not lose it.
	hit3 := make(chan crashed, 1)
	var once3 sync.Once
	h.node.SetCommitHook(func(stage shard.CommitStage, coord int, gid uint64, writers []int) {
		if stage != shard.StageDecided {
			return
		}
		once3.Do(func() {
			part := -1
			for _, wsh := range writers {
				if wsh != coord {
					part = wsh
					break
				}
			}
			if part < 0 {
				return
			}
			_ = h.node.HaltShard(part)
			hit3 <- crashed{coord, part}
		})
	})
	select {
	case c := <-hit3:
		h.node.SetCommitHook(nil)
		h.logf("fault 3: crashed participant %d after decide journaled (coord %d)", c.part, c.coord)
		if err := h.node.RestartShard(c.part); err != nil {
			return fmt.Errorf("restart participant %d after decide: %w", c.part, err)
		}
		if got := h.node.Engine(c.part).HealthState(); got != core.StateHealthy {
			return fmt.Errorf("participant %d recovered %v after journaled decide, want healthy", c.part, got)
		}
		h.logf("fault 3 done: participant %d replayed the journaled commit", c.part)
	case <-time.After(5 * time.Second):
		h.node.SetCommitHook(nil)
		return errors.New("fault 3: no cross-shard commit reached the decided stage")
	}
	return nil
}

// verifySQL checks the balance invariants through the SQL read path.
// With every shard healthy the SELECT must be complete (no warning).
func (h *serverChaos) verifySQL(cli *server.Client, allowPartial bool) error {
	res, err := cli.Exec(`SELECT id, qty FROM bal`)
	if err != nil {
		return fmt.Errorf("verify select: %w", err)
	}
	if !allowPartial && res.Warning != "" {
		return fmt.Errorf("verify select returned a partial result: %s", res.Warning)
	}
	seen := make(map[int64]int64, h.cfg.Keys)
	for _, r := range res.Rows {
		seen[r[0].Int()] = r[1].Int()
	}
	return h.checkBalances(seen)
}

// verifyEngine checks the same invariants directly on the recovered
// node (the server is gone by then).
func (h *serverChaos) verifyEngine() error {
	tx := h.node.Begin()
	defer tx.Abort()
	seen := make(map[int64]int64, h.cfg.Keys)
	if err := tx.ScanTable(balTable, func(r row.Row) bool {
		seen[r[0].Int()] = r[1].Int()
		return true
	}); err != nil {
		return fmt.Errorf("verify scan: %w", err)
	}
	return h.checkBalances(seen)
}

func (h *serverChaos) checkBalances(seen map[int64]int64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(seen) != h.cfg.Keys {
		return fmt.Errorf("saw %d accounts, want %d", len(seen), h.cfg.Keys)
	}
	var total int64
	for id, qty := range seen {
		total += qty
		if _, tainted := h.taint[id]; tainted {
			continue
		}
		if qty != h.model[id] {
			return fmt.Errorf("key %d: balance %d, model %d (untainted)", id, qty, h.model[id])
		}
	}
	h.res.Tainted = len(h.taint)
	if want := int64(h.cfg.Keys) * initialBalance; total != want {
		return fmt.Errorf("total balance %d, want %d — a transfer half-applied", total, want)
	}
	return nil
}
