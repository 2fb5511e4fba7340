package shard

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// The coordinator-crash window tests. Every scenario drives a real
// cross-shard commit into a crash at a precise 2PC stage boundary (via
// the commit hook), then exercises one leg of the in-doubt resolution
// matrix:
//
//   - crash before decide, coordinator recovers first → presumed abort,
//     settled online by ResolvePending (no shard restart);
//   - crash after decide, participant restarts while the coordinator is
//     still down → the decision journal resolves commit at restart;
//   - participant restarted inside the commit window → parks
//     recoverable ReadOnly, then the resolver learns the commit and
//     restarts it (the commit-needs-replay branch);
//   - coordinator's log destroyed after a decided crash → only the
//     journal stands between the participant and a wrongly presumed
//     abort.

// resolverConfig is nodeConfig with the background resolver disabled
// (tests drive ResolvePending synchronously), the write-route retry off
// (recoverable ReadOnly must surface, not spin), and an explicit
// journal backend so it can be carried across node incarnations.
func resolverConfig(media []*shardMedia, j *wal.MemBackend) Config {
	cfg := nodeConfig(media)
	cfg.JournalBackend = j
	cfg.ResolveInterval = -1
	cfg.DisableRouteRetry = true
	return cfg
}

// crossCommitWithHook inserts rows on shards 1 and 2 (coordinator 1)
// under the given commit hook and returns the keys and commit error.
func crossCommitWithHook(t *testing.T, n *Node, hook CommitHook) ([]int64, error) {
	t.Helper()
	createItems(t, n)
	keys := keysOnDistinctShards(n.r, 1, 2)
	n.SetCommitHook(hook)
	defer n.SetCommitHook(nil)
	tx := n.Begin()
	for _, id := range keys {
		if err := tx.Insert("items", itemRow(id, id)); err != nil {
			t.Fatal(err)
		}
	}
	return keys, tx.Commit()
}

// TestResolverOnlineExitAfterCoordinatorCrash is the classic window:
// coordinator and participant crash after every prepare is durable but
// before the decide record exists. The participant restarted first must
// park in recoverable ReadOnly (the outcome is genuinely unknowable),
// reject writes with a typed recoverable error, and exit the park IN
// PLACE — no second restart — once the coordinator is back and its
// complete log proves no decision was ever made.
func TestResolverOnlineExitAfterCoordinatorCrash(t *testing.T) {
	media := newMedia(4)
	n, err := Open(resolverConfig(media, wal.NewMemBackend()))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	keys, commitErr := crossCommitWithHook(t, n, func(stage CommitStage, coord int, gid uint64, writers []int) {
		if stage == StagePrepared {
			_ = n.HaltShard(1)
			_ = n.HaltShard(2)
		}
	})
	if commitErr == nil {
		t.Fatal("commit succeeded through a crashed coordinator")
	}

	// Participant comes back first: prepare durable, no decision
	// discoverable anywhere (no decide record, no journal entry, the
	// coordinator engine is down) → recoverable ReadOnly park.
	if err := n.RestartShard(2); err != nil {
		t.Fatal(err)
	}
	h := n.Engine(2).Health()
	if h.State != core.StateReadOnly || !h.ReadOnlyRecoverable {
		t.Fatalf("participant health = %+v, want recoverable ReadOnly", h)
	}
	if pending := n.Engine(2).UnresolvedInDoubt(); len(pending) != 1 || pending[0].Coord != 1 {
		t.Fatalf("pending in-doubt = %+v, want one txn with coord 1", pending)
	}

	// Writes routed to the parked shard fail with the typed recoverable
	// error; the resolver cannot settle anything while the coordinator
	// is unreachable.
	probe := keys[1]
	for id := keys[1] + 1; ; id++ {
		if n.r.shardOfKey(pk(id)) == 2 {
			probe = id
			break
		}
	}
	tx := n.Begin()
	wrErr := tx.Insert("items", itemRow(probe, 1))
	tx.Abort()
	var roe *core.ReadOnlyError
	if !errors.As(wrErr, &roe) || !roe.Recoverable {
		t.Fatalf("write to parked shard: %v, want recoverable ReadOnlyError", wrErr)
	}
	if got := n.ResolvePending(); got != 0 {
		t.Fatalf("ResolvePending with coordinator down = %d, want 0", got)
	}

	// Coordinator restarts: its complete log has no decide record, so
	// the next resolver pass settles presumed abort — in place.
	if err := n.RestartShard(1); err != nil {
		t.Fatal(err)
	}
	if got := n.Engine(1).HealthState(); got != core.StateHealthy {
		t.Fatalf("coordinator health after restart = %v", got)
	}
	if got := n.ResolvePending(); got != 1 {
		t.Fatalf("ResolvePending = %d, want 1", got)
	}
	if got := n.Engine(2).HealthState(); got != core.StateHealthy {
		t.Fatalf("participant health after resolve = %v, want healthy", got)
	}
	c := n.Counters()
	if c.InDoubtResolved != 1 || c.ReadOnlyExits != 1 || c.ShardRestarts != 2 {
		t.Fatalf("counters = %+v, want 1 resolved, 1 in-place exit, 2 restarts", c)
	}

	// Presumed abort: neither key exists; the un-parked shard accepts
	// writes again without any further restart.
	tx = n.Begin()
	for _, id := range keys {
		if _, ok, _ := tx.Get("items", pk(id)); ok {
			t.Fatalf("key %d resurrected after presumed abort", id)
		}
	}
	if err := tx.Insert("items", itemRow(keys[1], 7)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestResolverJournalCommitAtRestart crashes coordinator and
// participant after the decision is durable (decide record + journal
// copy) but before any local commit marker. The participant restarted
// while the coordinator is STILL DOWN must resolve commit through the
// node's decision journal and replay it — no park, no data loss.
func TestResolverJournalCommitAtRestart(t *testing.T) {
	media := newMedia(4)
	n, err := Open(resolverConfig(media, wal.NewMemBackend()))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	keys, commitErr := crossCommitWithHook(t, n, func(stage CommitStage, coord int, gid uint64, writers []int) {
		if stage == StageDecided {
			_ = n.HaltShard(1)
			_ = n.HaltShard(2)
		}
	})
	// The decision was durable before the crash: the transaction IS
	// committed even though both local commit markers were lost.
	if commitErr != nil {
		t.Fatalf("commit after durable decision returned %v, want nil", commitErr)
	}

	if err := n.RestartShard(2); err != nil {
		t.Fatal(err)
	}
	if got := n.Engine(2).HealthState(); got != core.StateHealthy {
		t.Fatalf("participant health = %v, want healthy (journal resolves commit)", got)
	}
	rs := n.Engine(2).Stats().Recovery
	if rs.InDoubt != 1 || rs.InDoubtCommitted != 1 {
		t.Fatalf("participant recovery counters = %+v, want 1 in-doubt committed", rs)
	}

	// The participant's key is readable before the coordinator returns.
	tx := n.Begin()
	if rw, ok, err := tx.Get("items", pk(keys[1])); err != nil || !ok || rw[2].Int() != keys[1] {
		t.Fatalf("participant key %d: ok=%v err=%v rw=%v", keys[1], ok, err, rw)
	}
	tx.Abort()

	if err := n.RestartShard(1); err != nil {
		t.Fatal(err)
	}
	tx = n.Begin()
	defer tx.Abort()
	for _, id := range keys {
		if _, ok, err := tx.Get("items", pk(id)); err != nil || !ok {
			t.Fatalf("decided key %d after full recovery: ok=%v err=%v", id, ok, err)
		}
	}
}

// TestResolverCommitRequiresRestart exercises the resolver's
// commit-needs-replay branch: a participant restarted INSIDE the commit
// window (its operator couldn't know a decide was milliseconds away)
// parks recoverable ReadOnly because the outcome is still in flight;
// the commit then lands, and the next resolver pass must learn it from
// the journal and restart the shard — a commit cannot be applied to a
// recovery that replayed the transaction as a loser. The restart runs
// on the committing goroutine, so the commit cannot settle while the
// restart waits for it: the wait runs out (restartCrossWait) first.
func TestResolverCommitRequiresRestart(t *testing.T) {
	media := newMedia(4)
	n, err := Open(resolverConfig(media, wal.NewMemBackend()))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	keys, commitErr := crossCommitWithHook(t, n, func(stage CommitStage, coord int, gid uint64, writers []int) {
		if stage != StagePrepared {
			return
		}
		// Crash the participant and bring it straight back while the
		// coordinator is mid-commit. Its recovery sees the in-doubt
		// prepare, probes, and must answer Unknown — presuming abort here
		// would contradict the decide about to be logged.
		_ = n.HaltShard(2)
		if err := n.RestartShard(2); err != nil {
			t.Errorf("restart inside commit window: %v", err)
		}
	})
	// The coordinator never crashed: decide + journal landed, phase 3
	// failed only on the old participant incarnation. Committed.
	if commitErr != nil {
		t.Fatalf("commit = %v, want nil", commitErr)
	}
	h := n.Engine(2).Health()
	if h.State != core.StateReadOnly || !h.ReadOnlyRecoverable {
		t.Fatalf("participant restarted mid-window: health = %+v, want recoverable ReadOnly", h)
	}

	// One resolver pass: journal says commit → shard restarts and the
	// replay applies it.
	if got := n.ResolvePending(); got != 1 {
		t.Fatalf("ResolvePending = %d, want 1", got)
	}
	if got := n.Engine(2).HealthState(); got != core.StateHealthy {
		t.Fatalf("participant health after resolve = %v", got)
	}
	c := n.Counters()
	if c.InDoubtResolved != 1 || c.ReadOnlyExits != 0 || c.ShardRestarts != 2 {
		t.Fatalf("counters = %+v, want commit resolved via restart (no in-place exit)", c)
	}
	tx := n.Begin()
	defer tx.Abort()
	for _, id := range keys {
		if rw, ok, err := tx.Get("items", pk(id)); err != nil || !ok || rw[2].Int() != id {
			t.Fatalf("committed key %d: ok=%v err=%v rw=%v", id, ok, err, rw)
		}
	}
}

// TestRestartWaitsForLiveCoordinator: a participant crashed after the
// decide of one transaction restarts while it also holds the prepare of
// another, whose live coordinator has not decided yet (held at
// StagePrepared by the hook). The restart must wait for that decision
// and come back healthy with both transactions committed, not park
// ReadOnly on a decision moments away.
func TestRestartWaitsForLiveCoordinator(t *testing.T) {
	media := newMedia(4)
	n, err := Open(resolverConfig(media, wal.NewMemBackend()))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	createItems(t, n)
	// Held: coordinator 0 with participant 2. Crashed: coordinator 1
	// with participant 2.
	keys := keysOnDistinctShards(n.r, 0, 2, 1, 2)
	held, release := make(chan struct{}), make(chan struct{})
	releaseHeld := sync.OnceFunc(func() { close(release) })
	defer releaseHeld()
	n.SetCommitHook(func(stage CommitStage, coord int, gid uint64, writers []int) {
		switch {
		case stage == StagePrepared && coord == 0:
			close(held)
			<-release
		case stage == StageDecided && coord == 1:
			_ = n.HaltShard(2)
		}
	})
	defer n.SetCommitHook(nil)
	insert := func(ids ...int64) error {
		tx := n.Begin()
		for _, id := range ids {
			if err := tx.Insert("items", itemRow(id, id)); err != nil {
				tx.Abort()
				return err
			}
		}
		return tx.Commit()
	}
	heldErr := make(chan error, 1)
	go func() { heldErr <- insert(keys[0], keys[1]) }()
	<-held
	if err := insert(keys[2], keys[3]); err != nil {
		t.Fatalf("commit decided before the crash = %v, want nil", err)
	}

	time.AfterFunc(20*time.Millisecond, releaseHeld)
	if err := n.RestartShard(2); err != nil {
		t.Fatal(err)
	}
	if h := n.Engine(2).Health(); h.State != core.StateHealthy {
		t.Fatalf("participant health after restart = %+v, unresolved %+v; want healthy",
			h, n.Engine(2).UnresolvedInDoubt())
	}
	if err := <-heldErr; err != nil {
		t.Fatalf("held commit = %v, want nil", err)
	}
	tx := n.Begin()
	defer tx.Abort()
	for _, id := range keys {
		if _, ok, err := tx.Get("items", pk(id)); err != nil || !ok {
			t.Fatalf("committed key %d: ok=%v err=%v", id, ok, err)
		}
	}
}

// TestJournalSurvivesCoordinatorLogLoss destroys the coordinator's
// entire storage after a decided crash. At the next full-node open the
// coordinator's (now empty) log would presume abort — the decision
// journal is the only witness to the commit, and it must win: scanned
// decisions and the journal are consulted before presumption.
func TestJournalSurvivesCoordinatorLogLoss(t *testing.T) {
	media := newMedia(4)
	journal := wal.NewMemBackend()
	n, err := Open(resolverConfig(media, journal))
	if err != nil {
		t.Fatal(err)
	}

	keys, commitErr := crossCommitWithHook(t, n, func(stage CommitStage, coord int, gid uint64, writers []int) {
		if stage == StageDecided {
			_ = n.HaltShard(1)
			_ = n.HaltShard(2)
		}
	})
	if commitErr != nil {
		t.Fatalf("commit = %v, want nil", commitErr)
	}
	if err := n.Halt(); err != nil {
		t.Fatal(err)
	}

	// The coordinator's device and logs are gone; the journal survives.
	media[1] = newMedia(1)[0]
	n2, err := Open(resolverConfig(media, journal))
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	if got := n2.Engine(2).HealthState(); got != core.StateHealthy {
		t.Fatalf("participant health = %v, want healthy via journal", got)
	}
	rs := n2.Engine(2).Stats().Recovery
	if rs.InDoubt != 1 || rs.InDoubtCommitted != 1 {
		t.Fatalf("participant recovery counters = %+v, want the commit replayed", rs)
	}
	// The participant's half of the transaction survived the loss of the
	// coordinator's log. (The coordinator's own rows went down with its
	// device — shard-local durability is the shard's own problem; the
	// journal's job is only the decision.)
	tx := n2.Begin()
	defer tx.Abort()
	if rw, ok, err := tx.Get("items", pk(keys[1])); err != nil || !ok || rw[2].Int() != keys[1] {
		t.Fatalf("participant key %d: ok=%v err=%v rw=%v", keys[1], ok, err, rw)
	}
}
