// Package shard implements a sharded multi-engine node: N independent
// core engines (each with its own data device, dual WALs, GC, pack and
// health state) behind a hash-partitioned primary-key router. A
// transaction that stays on one shard commits exactly as on a
// standalone engine; a transaction spanning shards commits with two-
// phase commit layered on the per-shard group-commit pipelines
// (DESIGN.md §12). The win is per-shard logs: group commit amortizes
// sync latency but not log bandwidth, so with a single log device
// write throughput caps at device-bandwidth / bytes-per-txn no matter
// how many committers coalesce — independent per-shard log devices
// multiply that ceiling.
//
// The node also owns the failure story (DESIGN.md §14): coordinator
// decisions replicate into a node-level journal and back into every
// participant's log, a background resolver un-parks shards left
// ReadOnly by in-doubt transactions, fan-out reads degrade to typed
// partial results instead of failing wholesale, and halted shards can
// be restarted in place.
package shard

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/row"
	"repro/internal/wal"
)

// ErrShardDown reports an operation routed to a halted shard. The rest
// of the node keeps serving; only transactions touching the dead shard
// fail.
var ErrShardDown = errors.New("shard: target shard is halted")

// ErrLayoutMismatch reports a data directory whose contents do not
// match the configuration: a different number of shard-NNN directories
// than Config.Shards asks for, or a single engine's files at the top
// level.
var ErrLayoutMismatch = errors.New("shard: data directory layout does not match the configuration")

// Config configures a Node.
type Config struct {
	// Shards is the engine count. 0 adopts the count Dir already holds,
	// and means 1 for an empty, missing or unset Dir; a positive count
	// that disagrees with Dir fails Open with ErrLayoutMismatch.
	Shards int

	// Dir, when set, stores each shard under Dir/shard-NNN and the
	// decision journal in Dir/decisions.log. Ignored fields of Base.Dir
	// are overridden per shard.
	Dir string

	// Base is the per-shard engine configuration (copied per shard).
	Base core.Config

	// Engine, when set, supplies each shard's configuration instead of
	// Base — tests use it to wire per-shard media that survive crashes.
	Engine func(shard int) core.Config

	// JournalBackend, when set, backs the node-level decision journal
	// (tests wire crash-surviving media). Defaults to Dir/decisions.log
	// when Dir is set, else an in-memory backend.
	JournalBackend wal.Backend

	// ResolveInterval is the background in-doubt resolver's poll period.
	// 0 takes a default (100ms); negative disables the loop (tests then
	// drive ResolvePending explicitly).
	ResolveInterval time.Duration

	// RouteRetry bounds the write-route retry loop: operations rejected
	// by a shard parked in recoverable ReadOnly (an unresolved in-doubt
	// transaction) retry with backoff, giving the resolver a window to
	// un-park the shard. Zero fields take defaults sized to span about
	// one resolver interval.
	RouteRetry fault.Policy
	// DisableRouteRetry turns the write-route retry off: recoverable
	// ReadOnly rejections surface on first occurrence.
	DisableRouteRetry bool
	// RouteRetrySleep overrides the route retrier's backoff sleep
	// (tests pin it). nil means real time.Sleep.
	RouteRetrySleep func(time.Duration)
}

// tableMeta is the routing metadata for one table.
type tableMeta struct {
	pkOrds []int
}

// Node is a sharded database node.
type Node struct {
	nShards int
	// confs holds each shard's fully-resolved engine configuration
	// (minus the resolver, which is rebuilt per open) so RestartShard
	// can re-open a shard onto the same storage.
	confs []core.Config
	// slots holds the live engine per shard behind an atomic pointer:
	// RestartShard swaps in a fresh incarnation while readers route
	// around the old one lock-free.
	slots []atomic.Pointer[core.Engine]
	r     router

	// journal is the node-level decision journal (journal.go).
	journal *decisionJournal

	// ddlMu serializes DDL; meta is the lock-free routing-metadata map
	// the transaction hot path reads (replaced wholesale on DDL).
	ddlMu sync.Mutex
	meta  atomic.Pointer[map[string]*tableMeta]

	// activeCross tracks cross-shard commits between first prepare and
	// final outcome: the resolver must not presume abort for a global
	// id whose decide record may be milliseconds from being logged.
	activeMu    sync.Mutex
	activeCross map[decKey]struct{}

	// restartMu serializes shard restarts.
	restartMu sync.Mutex

	quiesceGate sync.Mutex // the shards' Engine.ShareQuiesceGate

	// routeRetry drives write-route retries against recoverable
	// ReadOnly shards (nil when disabled).
	routeRetry *fault.Retrier

	// commitHook, when set, observes 2PC stage boundaries (chaos and
	// crash-window tests inject failures through it).
	commitHook atomic.Pointer[CommitHook]

	resolveStop chan struct{}
	resolveDone chan struct{}
	stopOnce    sync.Once

	// openTime is the wall time Open took to recover every shard.
	openTime time.Duration

	// Cross-shard commit accounting.
	singleCommits   atomic.Int64 // transactions with ≤1 writing shard
	crossCommits    atomic.Int64 // 2PC transactions committed
	crossAborts     atomic.Int64 // 2PC transactions aborted (prepare/decide failure)
	crossCommitErrs atomic.Int64 // committed 2PC txns whose local commit marker was lost

	// Failure-handling accounting.
	inDoubtResolved atomic.Int64 // in-doubt txns settled by the resolver
	readOnlyExits   atomic.Int64 // recoverable ReadOnly parks cleared in place
	shardRestarts   atomic.Int64 // engine incarnations swapped in by RestartShard
	partialResults  atomic.Int64 // fan-out reads that returned a partial result
}

// Counters is the node-level commit accounting snapshot.
type Counters struct {
	SingleShardCommits   int64
	CrossShardCommits    int64
	CrossShardAborts     int64
	CrossShardCommitErrs int64

	// InDoubtResolved counts in-doubt transactions the background
	// resolver settled at runtime (abort in place or commit via shard
	// restart).
	InDoubtResolved int64
	// ReadOnlyExits counts shards that left the recoverable ReadOnly
	// park in place, without a restart.
	ReadOnlyExits int64
	// ShardRestarts counts engine incarnations swapped in by
	// RestartShard (operator- or resolver-driven).
	ShardRestarts int64
	// PartialResults counts fan-out reads that skipped unavailable
	// shards and returned a typed PartialResultError.
	PartialResults int64
}

// defaultResolveInterval is the background resolver poll period.
const defaultResolveInterval = 100 * time.Millisecond

// decisionSet is one shard's coordinator-decision index, pre-scanned
// from its syslogs before any engine opens. Outcomes are keyed by
// (coordinator, gid): the shard's own decisions as a coordinator plus
// decisions written back to it by peers.
type decisionSet struct {
	// complete means the scan reached the durable end of the log (EOF or
	// a torn tail, which only ever trails the durable prefix): the
	// shard's own absent global ids are then presumed aborts. An
	// incomplete scan maps absent ids to Unknown instead — guessing
	// would risk diverging from a decision that does exist but could
	// not be read.
	complete bool
	outcomes map[decKey]bool // (coord, gid) → committed?
}

// scanDecisions reads one shard's syslogs (before its engine opens) and
// indexes every decision record. Scan failures degrade to an incomplete
// set rather than failing Open: the engine's own recovery will surface
// real storage errors, and an incomplete set merely parks shards with
// in-doubt transactions ReadOnly instead of guessing.
func scanDecisions(cfg *core.Config) decisionSet {
	ds := decisionSet{outcomes: make(map[decKey]bool)}
	var b wal.Backend
	var owned bool
	switch {
	case cfg.Dir != "":
		path := filepath.Join(cfg.Dir, "syslogs.log")
		if _, err := os.Stat(path); err != nil {
			ds.complete = true // fresh shard: nothing ever decided
			return ds
		}
		fb, err := wal.OpenFileBackend(path)
		if err != nil {
			return ds
		}
		b, owned = fb, true
	case cfg.SysLogBackend != nil:
		b = cfg.SysLogBackend
	default:
		ds.complete = true // fresh in-memory shard
		return ds
	}
	if owned {
		defer b.Close()
	}
	l, err := wal.NewLog(b)
	if err != nil {
		return ds
	}
	rdr, err := l.NewReader(0)
	if err != nil {
		return ds
	}
	for {
		rec, err := rdr.Next()
		if err == io.EOF {
			ds.complete = true
			return ds
		}
		if err != nil {
			// A torn final frame is a crash artifact — nothing durable
			// follows it, so the decision index is still complete.
			ds.complete = errors.Is(err, wal.ErrTorn)
			return ds
		}
		if rec.Type == wal.RecDecide {
			ds.outcomes[decKey{coord: rec.Table, gid: uint64(rec.RID)}] = rec.Aux == 1
		}
	}
}

// shardDir is shard i's directory name under Config.Dir.
func shardDir(i int) string { return fmt.Sprintf("shard-%03d", i) }

// ResolveShards returns the shard count a node over dir opens with,
// reading dir without changing it: the number of shard-NNN directories
// it holds, or max(want, 1) when it holds none (or dir is empty or
// missing). It fails with ErrLayoutMismatch when want is positive and
// disagrees with the directories found, and when dir holds a single
// engine's files at the top level — opening either would route keys to
// the wrong shard.
func ResolveShards(dir string, want int) (int, error) {
	found := 0
	if dir != "" {
		for _, name := range []string{"data.db", "syslogs.log"} {
			if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
				return 0, fmt.Errorf("%w: %s holds a single engine's %s, not shard directories", ErrLayoutMismatch, dir, name)
			}
		}
		for {
			st, err := os.Stat(filepath.Join(dir, shardDir(found)))
			if err != nil || !st.IsDir() {
				break
			}
			found++
		}
	}
	switch {
	case found == 0:
		return max(want, 1), nil
	case want > 0 && want != found:
		return 0, fmt.Errorf("%w: %s holds %d shards, configuration asks for %d", ErrLayoutMismatch, dir, found, want)
	}
	return found, nil
}

// Open opens (or recovers) a sharded node. Recovery order matters: all
// shards' decision records and the node journal are indexed first, then
// each engine recovers with a resolver over that index — an in-doubt
// prepared transaction on shard A resolves through coordinator shard
// B's log, the write-backs in any peer's log, or the journal, even
// though no engine is open yet.
func Open(cfg Config) (*Node, error) {
	nShards, err := ResolveShards(cfg.Dir, cfg.Shards)
	if err != nil {
		return nil, err
	}
	confs := make([]core.Config, nShards)
	for i := range confs {
		if cfg.Engine != nil {
			confs[i] = cfg.Engine(i)
		} else {
			confs[i] = cfg.Base
		}
		confs[i].ShardID = uint32(i)
		if cfg.Dir != "" {
			d := filepath.Join(cfg.Dir, shardDir(i))
			if err := os.MkdirAll(d, 0o755); err != nil {
				return nil, err
			}
			confs[i].Dir = d
		}
	}

	journal, err := openJournal(&cfg)
	if err != nil {
		return nil, err
	}

	// Shards recover concurrently: first every shard's decision scan,
	// which the resolver reads, then every engine's open.
	start := time.Now()
	decisions := make([]decisionSet, nShards)
	eachShard(nShards, func(i int) { decisions[i] = scanDecisions(&confs[i]) })
	resolver := func(gid uint64, coord uint32) core.TwoPCOutcome {
		k := decKey{coord: coord, gid: gid}
		for i := range decisions {
			if commit, ok := decisions[i].outcomes[k]; ok {
				return outcomeOf(commit)
			}
		}
		if commit, ok := journal.lookup(coord, gid); ok {
			return outcomeOf(commit)
		}
		if int(coord) >= nShards {
			return core.TwoPCUnknown // prepare names a shard this node doesn't have
		}
		if decisions[coord].complete {
			return core.TwoPCAbort // presumed abort: the coordinator's whole log has no decision
		}
		return core.TwoPCUnknown
	}

	n := &Node{
		nShards: nShards,
		confs:   confs,
		slots:   make([]atomic.Pointer[core.Engine], nShards),
		r:       router{n: uint64(nShards)},
		journal: journal,
	}
	engines := make([]*core.Engine, nShards)
	errs := make([]error, nShards)
	eachShard(nShards, func(i int) {
		c := confs[i]
		c.TwoPCResolver = resolver
		if engines[i], errs[i] = core.Open(c); errs[i] == nil {
			engines[i].ShareQuiesceGate(&n.quiesceGate)
		}
	})
	for i, err := range errs {
		if err != nil {
			for _, e := range engines {
				if e != nil {
					_ = e.Close()
				}
			}
			journal.close()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	for i, e := range engines {
		n.slots[i].Store(e)
	}
	n.openTime = time.Since(start)

	if !cfg.DisableRouteRetry {
		p := cfg.RouteRetry
		if p.MaxAttempts == 0 && p.BaseDelay == 0 && p.MaxDelay == 0 {
			// Default sized to span roughly one resolver interval, so a
			// write racing an almost-resolved park usually wins.
			p = fault.Policy{MaxAttempts: 6, BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
		}
		n.routeRetry = fault.NewRetrier(p)
		if cfg.RouteRetrySleep != nil {
			n.routeRetry.Sleep = cfg.RouteRetrySleep
		}
	}

	// Rebuild routing metadata from the recovered catalog (shard 0 is
	// authoritative; DDL applies to every shard in the same order).
	m := make(map[string]*tableMeta)
	for _, tb := range n.engine(0).Catalog().Tables() {
		m[tb.Name] = &tableMeta{pkOrds: tb.PKOrds}
	}
	n.meta.Store(&m)

	if cfg.ResolveInterval >= 0 {
		iv := cfg.ResolveInterval
		if iv == 0 {
			iv = defaultResolveInterval
		}
		n.resolveStop = make(chan struct{})
		n.resolveDone = make(chan struct{})
		go n.resolveLoop(iv)
	}
	return n, nil
}

// eachShard runs fn(i) for every shard i at once and waits for all.
func eachShard(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// OpenTime returns the wall time Open took to recover every shard; the
// shards recover concurrently, so it is not the sum of their times.
func (n *Node) OpenTime() time.Duration { return n.openTime }

// engine returns shard i's live engine incarnation.
func (n *Node) engine(i int) *core.Engine { return n.slots[i].Load() }

// NumShards returns the shard count.
func (n *Node) NumShards() int { return n.nShards }

// Engine exposes one shard's engine (stats, tests). The pointer is a
// snapshot: RestartShard may swap in a fresh incarnation afterwards.
func (n *Node) Engine(i int) *core.Engine { return n.engine(i) }

// Counters returns the node-level commit accounting.
func (n *Node) Counters() Counters {
	return Counters{
		SingleShardCommits:   n.singleCommits.Load(),
		CrossShardCommits:    n.crossCommits.Load(),
		CrossShardAborts:     n.crossAborts.Load(),
		CrossShardCommitErrs: n.crossCommitErrs.Load(),
		InDoubtResolved:      n.inDoubtResolved.Load(),
		ReadOnlyExits:        n.readOnlyExits.Load(),
		ShardRestarts:        n.shardRestarts.Load(),
		PartialResults:       n.partialResults.Load(),
	}
}

// beginCross registers a cross-shard commit as in flight from before
// its first prepare until its final outcome.
func (n *Node) beginCross(coord uint32, gid uint64) {
	n.activeMu.Lock()
	if n.activeCross == nil {
		n.activeCross = make(map[decKey]struct{})
	}
	n.activeCross[decKey{coord: coord, gid: gid}] = struct{}{}
	n.activeMu.Unlock()
}

func (n *Node) endCross(coord uint32, gid uint64) {
	n.activeMu.Lock()
	delete(n.activeCross, decKey{coord: coord, gid: gid})
	n.activeMu.Unlock()
}

func (n *Node) crossInFlight(coord uint32, gid uint64) bool {
	n.activeMu.Lock()
	_, ok := n.activeCross[decKey{coord: coord, gid: gid}]
	n.activeMu.Unlock()
	return ok
}

// probeDecision is the runtime 2PC outcome lookup shared by the
// background resolver and RestartShard's recovery resolver: own
// pre-scanned decisions (nil for the background path), then the node
// journal, then a live coordinator's decision index. Presumed abort
// applies only against a complete decision source — the coordinator's
// fully-scanned log (coord == self) or a live coordinator engine whose
// index covers its whole log — and never while the commit might still
// be in flight in this process.
func (n *Node) probeDecision(gid uint64, coord uint32, own *decisionSet, self int) core.TwoPCOutcome {
	k := decKey{coord: coord, gid: gid}
	if own != nil {
		if commit, ok := own.outcomes[k]; ok {
			return outcomeOf(commit)
		}
	}
	if commit, ok := n.journal.lookup(coord, gid); ok {
		return outcomeOf(commit)
	}
	if int(coord) >= n.nShards {
		return core.TwoPCUnknown
	}
	if n.crossInFlight(coord, gid) {
		// The coordinator is between prepare and decide right now:
		// presuming abort here could contradict a decide that lands
		// microseconds later. Stay unknown; the next probe settles it.
		return core.TwoPCUnknown
	}
	if int(coord) == self {
		if own != nil {
			if own.complete {
				return core.TwoPCAbort
			}
			return core.TwoPCUnknown
		}
		// Runtime probe (no fresh scan in hand): the parked engine itself
		// indexed its entire log at recovery and every decision since, so
		// its own decision index is complete knowledge for gids it
		// coordinated — no record means no decide ever became durable on
		// the only shard that could have written one. Without this, a
		// shard that parked while its own cross-shard commit was still
		// unwinding (crossInFlight at open) could never be resolved by
		// ResolvePending.
		if e := n.engine(self); e != nil && e.HealthState() != core.StateHalted {
			if commit, known := e.DecisionFor(gid, coord); known {
				return outcomeOf(commit)
			}
			return core.TwoPCAbort
		}
		return core.TwoPCUnknown
	}
	pe := n.engine(int(coord))
	if pe == nil || pe.HealthState() == core.StateHalted {
		return core.TwoPCUnknown
	}
	if commit, known := pe.DecisionFor(gid, coord); known {
		return outcomeOf(commit)
	}
	// The live coordinator indexed its entire log at recovery and every
	// decision since: no record means no decision was ever made durable.
	return core.TwoPCAbort
}

// RestartShard halts (if needed) and re-opens one shard onto the same
// storage, resolving its in-doubt transactions through the node's
// runtime knowledge: the shard's own re-scanned log, the decision
// journal, and live peer engines. This is how a halted shard rejoins a
// running node, and how the resolver applies a learned commit decision
// (recovery must replay it — a commit cannot be applied in place).
//
// Only meaningful on durable storage (Dir or explicit crash-surviving
// media): a shard whose config names no device would restart blank.
func (n *Node) RestartShard(i int) error {
	if i < 0 || i >= n.nShards {
		return fmt.Errorf("shard: restart: no shard %d", i)
	}
	n.restartMu.Lock()
	defer n.restartMu.Unlock()
	if old := n.engine(i); old != nil {
		if old.HealthState() != core.StateHalted {
			_ = old.Halt()
		}
		if n.confs[i].Dir != "" {
			// Dir-backed incarnations own their file handles; release them
			// so the new incarnation isn't stacked on leaked descriptors.
			// Explicit-media configs are left alone — the caller owns them
			// and reuses them across incarnations.
			_ = old.ReleaseStorage()
		}
	}
	cfg := n.confs[i]
	own := scanDecisions(&cfg)
	cfg.TwoPCResolver = func(gid uint64, coord uint32) core.TwoPCOutcome {
		return n.probeDecision(gid, coord, &own, i)
	}
	e, err := core.Open(cfg)
	if err != nil {
		return fmt.Errorf("shard %d: restart: %w", i, err)
	}
	e.ShareQuiesceGate(&n.quiesceGate)
	n.slots[i].Store(e)
	n.shardRestarts.Add(1)
	return nil
}

// CreateTable creates the table on every shard. DDL is not atomic
// across shards: a mid-way failure leaves the table on a prefix of
// shards (surfaced as an error; retrying after fixing the cause is
// safe on the shards that already have it only by dropping — the node
// treats DDL errors as fatal to the table).
func (n *Node) CreateTable(name string, schema *row.Schema, pkCols []string,
	spec catalog.PartitionSpec, indexes []catalog.IndexSpec) error {
	n.ddlMu.Lock()
	defer n.ddlMu.Unlock()
	var pkOrds []int
	for i := 0; i < n.nShards; i++ {
		t, err := n.engine(i).CreateTable(name, schema, pkCols, spec, indexes)
		if err != nil {
			return fmt.Errorf("shard %d: create table %q: %w", i, name, err)
		}
		pkOrds = t.PKOrds
	}
	old := *n.meta.Load()
	m := make(map[string]*tableMeta, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[name] = &tableMeta{pkOrds: pkOrds}
	n.meta.Store(&m)
	return nil
}

// DropTable drops the table from every shard. As with CreateTable,
// DDL is not atomic across shards: a mid-way failure leaves the table
// dropped on a prefix of shards.
func (n *Node) DropTable(name string) error {
	n.ddlMu.Lock()
	defer n.ddlMu.Unlock()
	for i := 0; i < n.nShards; i++ {
		if err := n.engine(i).DropTable(name); err != nil {
			return fmt.Errorf("shard %d: drop table %q: %w", i, name, err)
		}
	}
	old := *n.meta.Load()
	m := make(map[string]*tableMeta, len(old))
	for k, v := range old {
		if k != name {
			m[k] = v
		}
	}
	n.meta.Store(&m)
	return nil
}

// PinTable applies the in-memory / on-disk pin on every shard.
func (n *Node) PinTable(name string, inMemory bool) error {
	n.ddlMu.Lock()
	defer n.ddlMu.Unlock()
	for i := 0; i < n.nShards; i++ {
		if err := n.engine(i).PinTable(name, inMemory); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// tableMetaFor resolves routing metadata for a table.
func (n *Node) tableMetaFor(table string) (*tableMeta, error) {
	if tm := (*n.meta.Load())[table]; tm != nil {
		return tm, nil
	}
	return nil, fmt.Errorf("shard: no such table %q", table)
}

// HaltShard crash-stops one shard (no checkpoint, no final flush —
// durable state is exactly what its logs hold). The other shards keep
// serving; transactions that touch the dead shard fail with
// ErrShardDown (or a commit error if already in flight). RestartShard
// brings it back.
func (n *Node) HaltShard(i int) error {
	return n.engine(i).Halt()
}

// Halt crash-stops every shard.
func (n *Node) Halt() error {
	n.stopResolver()
	var errs []error
	for i := 0; i < n.nShards; i++ {
		errs = append(errs, n.engine(i).Halt())
	}
	return errors.Join(errs...)
}

// Close checkpoints and shuts down every shard (halted shards close as
// no-ops). Errors aggregate via errors.Join.
func (n *Node) Close() error {
	n.stopResolver()
	var errs []error
	for i := 0; i < n.nShards; i++ {
		errs = append(errs, n.engine(i).Close())
	}
	n.journal.close()
	return errors.Join(errs...)
}

func (n *Node) stopResolver() {
	if n.resolveStop == nil {
		return
	}
	n.stopOnce.Do(func() {
		close(n.resolveStop)
		<-n.resolveDone
	})
}
