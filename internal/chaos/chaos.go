// Package chaos is the randomized fault-injection driver of the node: a
// seeded scheduler runs named scenarios, one per cycle, against one
// shard.Node whose media survive every crash, while a shadow model of
// the committed state is checked after every event.
//
// Engine scenarios run a single-threaded insert/update/delete/read
// workload on shard 0 (the whole node when it has one shard):
//
//   - calm: the live node matches the model exactly;
//   - transient-device, transient-wal: glitches the retry layer (or the
//     degraded fallback) must absorb without losing a row;
//   - log-death: one log of shard 0 dies; the shard must go read-only,
//     keep serving committed rows (never rolled-back ones) and reject
//     writes with a typed *core.ReadOnlyError carrying its cause;
//   - crash-recover: a crash-exact halt mid-workload.
//
// Node scenarios run zero-sum transfers between accounts on a 4-shard
// node from concurrent clients while they inject their fault:
//
//   - shard-halt: one shard dies; survivors keep committing (the
//     committed transfers/s before and after the halt are reported),
//     the dead shard fails typed and reads degrade to partial results;
//     the node is then crashed whole and reopened without its decision
//     journal, so in-doubt transfers resolve through the coordinators'
//     decision logs alone;
//   - coordinator-crash-before-decide: a coordinator and a participant
//     die between prepare and decide; the participant must leave its
//     recoverable ReadOnly park online once the coordinator is back;
//   - participant-crash-after-decide: a participant dies after the
//     decision was journaled; its restart replays the commit and comes
//     back Healthy;
//   - conn-drop: clients vanish mid-transaction; nothing half-applies.
//
// Every recovery must succeed, leave every shard Healthy, and serve
// every committed row with exactly its committed value. A commit whose
// error may have followed its log write is ambiguous: the key may
// recover to either state, but to one of them. A transfer whose commit
// errored taints its two accounts (their exact value is unknown), but
// the total balance must still be conserved.
//
// Transfers and the model's reads go through one of two front ends: the
// node's own transactions, or SQL over loopback TCP (server.Client)
// when conn-drop is scheduled.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"repro/btrim"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/row"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/sql"
	"repro/internal/storage/disk"
	"repro/internal/wal"
)

// Config parameterizes a chaos run.
type Config struct {
	// Seed drives every random decision; a given seed replays the same
	// fault schedule.
	Seed int64
	// Scenarios names the scenarios to schedule (see ParseScenarios);
	// empty schedules all of them.
	Scenarios []string
	// Cycles is the number of scenario steps (default: one per scenario).
	Cycles int
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// Result summarizes a completed run.
type Result struct {
	Cycles          int
	Recoveries      int   // whole-node crash/recover cycles
	ReadOnlyEvents  int   // log deaths that drove shard 0 read-only
	Commits         int64 // row writes and transfers committed (model applied)
	FailedCommits   int64 // commits that errored (ambiguous or tainted)
	CleanAborts     int64 // transfers that failed before commit
	TransientFaults int64 // transient device and WAL faults armed
	RowsVerified    int64

	CrossCommits      int64 // node-level 2PC commits
	SurvivorCommits   int64 // transfers committed while a shard was down
	DeadShardFailures int64 // operations that failed with shard.ErrShardDown
	RetryableErrors   int64 // wire errors carrying the retryable bit
	PartialSelects    int64 // reads that returned a partial result with a shard down
	Redials           int64 // wire connections dropped or broken and re-dialed
	ShardRestarts     int64 // shards restarted in place
	InDoubtResolved   int64 // in-doubt transactions settled online
	ReadOnlyExits     int64 // ReadOnly parks exited in place
	Tainted           int   // accounts excluded from the exact-value check

	// Committed transfers per second around the last shard halt.
	HealthyPerSec, DegradedPerSec float64
}

// A scenario is one step of the schedule.
type scenario struct {
	name string
	node bool // runs transfers on a multi-shard node
	wire bool // needs the SQL front end
	step func(*harness) error
}

var scenarios = []scenario{
	{"calm", false, false, calm},
	{"transient-device", false, false, transientDevice},
	{"transient-wal", false, false, transientWAL},
	{"log-death", false, false, logDeath},
	{"crash-recover", false, false, crashMidWorkload},
	{"shard-halt", true, false, shardHalt},
	{"coordinator-crash-before-decide", true, false, coordinatorCrash},
	{"participant-crash-after-decide", true, false, participantCrash},
	{"conn-drop", true, true, connDrop},
}

// ParseScenarios splits a comma-separated list of scenario names and
// rejects any name it does not know, listing the valid ones.
func ParseScenarios(list string) ([]string, error) {
	var names, valid []string
	for _, s := range scenarios {
		valid = append(valid, s.name)
	}
	for _, n := range strings.Split(list, ",") {
		if n = strings.TrimSpace(n); n == "" {
			continue
		}
		if lookup(n) == nil {
			return nil, fmt.Errorf("unknown scenario %q (valid: %s)", n, strings.Join(valid, ", "))
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no scenario named (valid: %s)", strings.Join(valid, ", "))
	}
	return names, nil
}

func lookup(name string) *scenario {
	for i := range scenarios {
		if scenarios[i].name == name {
			return &scenarios[i]
		}
	}
	return nil
}

// Run constants: one value each, shared by every scenario.
const (
	table          = "chaos"
	accounts       = 64   // transfer accounts, keys 1..accounts
	initialBalance = 1000 // per account; the total is conserved
	nodeShards     = 4    // node size when a node scenario is scheduled
	workers        = 4    // concurrent transfer clients
	crossPct       = 80   // share of transfers between two shards
	opsPerCycle    = 25   // engine-scenario writes per cycle
	phaseCommits   = 200  // transfers per measured shard-halt phase
	phaseMin       = 100 * time.Millisecond
	cacheBytes     = 256 << 10 // small enough to cross the cache-pressure paths
	waitLimit      = 10 * time.Second
)

// media is one shard's crash-surviving storage and the fault wrappers
// of its current incarnation.
type media struct {
	dev      *disk.MemDevice
	sys, ims *wal.MemBackend
	fdev     *disk.FaultyDevice
	fsys     *wal.FaultyBackend
	fims     *wal.FaultyBackend
}

// harness is one run's state: the media, the node over them, the front
// end, the shadow model and the counters. mu guards m and res while
// transfer clients run.
type harness struct {
	cfg     Config
	rng     *rand.Rand
	media   []*media
	journal *wal.MemBackend
	wire    bool

	node   *shard.Node
	srv    *server.Server
	served chan error
	addr   string
	admin  client // the scheduler's own front-end client

	mu   sync.Mutex
	m    model
	res  Result
	down bool // a shard is halted: commits count as survivors
}

// Run executes a chaos run and returns its summary; a non-nil error is
// an invariant violation (or a setup failure) and fails the run.
func Run(cfg Config) (Result, error) {
	if len(cfg.Scenarios) == 0 {
		for _, s := range scenarios {
			cfg.Scenarios = append(cfg.Scenarios, s.name)
		}
	}
	var order []*scenario
	shards := 1
	h := &harness{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), journal: wal.NewMemBackend()}
	for _, name := range cfg.Scenarios {
		s := lookup(name)
		if s == nil {
			return h.res, fmt.Errorf("chaos: unknown scenario %q", name)
		}
		order = append(order, s)
		if s.node {
			shards = nodeShards
		}
		h.wire = h.wire || s.wire
	}
	if cfg.Cycles <= 0 {
		cfg.Cycles = len(order)
	}
	for i := 0; i < shards; i++ {
		h.media = append(h.media, &media{dev: disk.NewMemDevice(0, 0), sys: wal.NewMemBackend(), ims: wal.NewMemBackend()})
	}
	err := h.setup()
	if err == nil {
		err = h.schedule(order, cfg.Cycles)
	}
	if err == nil {
		// The last word: a whole-node crash-recover keeping the journal,
		// verified through the engine read path too when the run used SQL.
		err = h.crashRecover(h.readOnly())
	}
	if err == nil && h.wire {
		err = h.verify(nodeClient{h}, true)
	}
	h.close()
	h.res.Tainted = len(h.m.taint)
	if err != nil {
		return h.res, fmt.Errorf("seed %d: %w", cfg.Seed, err)
	}
	return h.res, nil
}

// schedule runs cycles steps: the scenarios in a seeded order, each one
// once per round.
func (h *harness) schedule(order []*scenario, cycles int) error {
	for c := 0; c < cycles; c++ {
		if c%len(order) == 0 {
			h.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		// A poisoned log leaves a shard read-only; recover it before more
		// load so the run never goes vacuous.
		if h.readOnly() {
			if err := h.crashRecover(true); err != nil {
				return fmt.Errorf("cycle %d: %w", c, err)
			}
		}
		s := order[c%len(order)]
		h.logf("cycle %d: %s", c, s.name)
		if err := s.step(h); err != nil {
			return fmt.Errorf("cycle %d (%s): %w", c, s.name, err)
		}
		h.res.Cycles++
		// Seeded extra pressure: explicit checkpoints and pack steps. A
		// checkpoint may fail under injected faults; health tracks it.
		eng := h.node.Engine(h.rng.Intn(len(h.media)))
		if h.rng.Intn(4) == 0 {
			_ = eng.Checkpoint()
		}
		if h.rng.Intn(4) == 0 {
			eng.Packer().Step()
		}
	}
	return nil
}

func (h *harness) logf(format string, args ...any) {
	if h.cfg.Logf != nil {
		h.cfg.Logf(format, args...)
	}
}

// setup opens the node, creates the table and funds the accounts.
func (h *harness) setup() error {
	if err := h.open(); err != nil {
		return err
	}
	schema, err := row.NewSchema(
		row.Column{Name: "id", Kind: row.KindInt64},
		row.Column{Name: "name", Kind: row.KindString},
		row.Column{Name: "qty", Kind: row.KindInt64},
	)
	if err != nil {
		return err
	}
	if err := h.node.CreateTable(table, schema, []string{"id"}, catalog.PartitionSpec{}, nil); err != nil {
		return err
	}
	h.m = model{rows: map[int64]int64{}, ambig: map[int64][]state{}, taint: map[int64]bool{}, next: accounts + 1}
	tx := h.node.Begin()
	for id := int64(1); id <= accounts; id++ {
		if err := tx.Insert(table, chaosRow(id, initialBalance)); err != nil {
			tx.Abort()
			return err
		}
		h.m.rows[id] = initialBalance
	}
	return tx.Commit()
}

// open starts a node over the run's media, with fresh fault wrappers
// and the current decision journal, and serves it over loopback TCP
// when the run uses the wire.
func (h *harness) open() error {
	n, err := shard.Open(shard.Config{
		Shards: len(h.media),
		Engine: func(i int) core.Config {
			m := h.media[i]
			m.fdev = &disk.FaultyDevice{Inner: m.dev}
			m.fsys = &wal.FaultyBackend{Inner: m.sys}
			m.fims = &wal.FaultyBackend{Inner: m.ims}
			cfg := core.DefaultConfig()
			cfg.DataDevice = m.fdev
			cfg.SysLogBackend = m.fsys
			cfg.IMRSLogBackend = m.fims
			cfg.IMRSCacheBytes = cacheBytes
			cfg.PackInterval = time.Hour // driven explicitly via Packer().Step()
			cfg.LockTimeout = 2 * time.Second
			cfg.RetrySleep = func(time.Duration) {} // backoff must not slow the run
			return cfg
		},
		JournalBackend:  &wal.FaultyBackend{Inner: h.journal},
		ResolveInterval: 20 * time.Millisecond,
		RouteRetrySleep: func(time.Duration) {},
	})
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	h.node = n
	if h.wire {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		h.srv = server.NewWithConfig(sql.Wrap(btrim.WrapNode(n)), server.Config{
			MaxConns:         workers + 4,
			StatementTimeout: 10 * time.Second,
		})
		h.addr = ln.Addr().String()
		h.served = make(chan error, 1)
		go func() { h.served <- h.srv.Serve(ln) }()
	}
	h.admin = h.client()
	return nil
}

// stop drains the server and folds the node's counters into the
// result; the caller then halts or closes the node.
func (h *harness) stop() error {
	h.admin.close()
	if h.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := h.srv.Shutdown(ctx)
		if serr := <-h.served; err == nil && serr != nil {
			err = fmt.Errorf("serve: %w", serr)
		}
		h.srv = nil
		if err != nil {
			return fmt.Errorf("drain: %w", err)
		}
	}
	c := h.node.Counters()
	h.res.CrossCommits += c.CrossShardCommits
	h.res.ShardRestarts += c.ShardRestarts
	h.res.InDoubtResolved += c.InDoubtResolved
	h.res.ReadOnlyExits += c.ReadOnlyExits
	return nil
}

// close shuts the node down at the end of a run, failed or not.
func (h *harness) close() {
	if h.node != nil {
		_ = h.stop()
		_ = h.node.Close()
	}
}

// crashRecover halts the node crash-exactly, reopens it over the same
// media and checks the model survived. Halt must report ErrReadOnly
// exactly when a shard was read-only.
func (h *harness) crashRecover(expectReadOnly bool) error {
	if err := h.stop(); err != nil {
		return err
	}
	herr := h.node.Halt()
	h.node = nil
	if errors.Is(herr, core.ErrReadOnly) != expectReadOnly || (!expectReadOnly && herr != nil) {
		return fmt.Errorf("Halt returned %v with read-only=%v", herr, expectReadOnly)
	}
	if err := h.open(); err != nil {
		return fmt.Errorf("recovery failed: %w", err)
	}
	h.res.Recoveries++
	for i := range h.media {
		if got := h.node.Engine(i).HealthState(); got != core.StateHealthy {
			return fmt.Errorf("shard %d recovered %v, want healthy (in-doubt left unresolved?)", i, got)
		}
	}
	return h.verify(h.admin, true)
}

// readOnly reports whether any shard is read-only.
func (h *harness) readOnly() bool {
	for i := range h.media {
		if h.node.Engine(i).HealthState() == core.StateReadOnly {
			return true
		}
	}
	return false
}

// settle waits until every shard is Healthy (the resolver un-parks
// shards online) and verifies the model.
func (h *harness) settle() error {
	for i := range h.media {
		if err := h.awaitHealthy(i); err != nil {
			return err
		}
	}
	return h.verify(h.admin, true)
}

func (h *harness) awaitHealthy(i int) error {
	deadline := time.Now().Add(waitLimit)
	for h.node.Engine(i).HealthState() != core.StateHealthy {
		h.node.ResolvePending()
		if time.Now().After(deadline) {
			return fmt.Errorf("shard %d stuck %v", i, h.node.Engine(i).HealthState())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// verify reads every key ever written through c and checks it against
// the model (see model.check).
func (h *harness) verify(c client, resolve bool) error {
	view, partial, err := c.rows(h.m.next)
	if err != nil {
		return fmt.Errorf("verify read: %w", err)
	}
	if partial {
		return errors.New("verify read returned a partial result with every shard up")
	}
	h.res.RowsVerified += int64(len(view))
	return h.m.check(view, resolve)
}
