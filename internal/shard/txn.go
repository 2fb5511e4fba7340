package shard

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/row"
	"repro/internal/storage/colseg"
)

// CommitStage names a 2PC stage boundary observed by a CommitHook.
type CommitStage uint8

// Stage boundaries, in commit order.
const (
	// StagePrepared: every participant's prepare is durable; the
	// coordinator's decide record is not yet logged. A crash here is the
	// classic coordinator-failure window — participants hold in-doubt
	// prepares and the outcome is presumed abort.
	StagePrepared CommitStage = iota
	// StageDecided: the decide record and its journal copy are durable;
	// the participants' local commit markers are not yet logged. A crash
	// here MUST resolve to commit through the decision.
	StageDecided
)

// CommitHook observes 2PC stage boundaries. Chaos and the crash-window
// tests inject shard halts through it; it runs synchronously on the
// committing goroutine.
type CommitHook func(stage CommitStage, coord int, gid uint64, writers []int)

// SetCommitHook installs (or, with nil, removes) the node's commit
// hook.
func (n *Node) SetCommitHook(h CommitHook) {
	if h == nil {
		n.commitHook.Store(nil)
		return
	}
	n.commitHook.Store(&h)
}

func (n *Node) fireHook(stage CommitStage, coord int, gid uint64, writers []int) {
	if hp := n.commitHook.Load(); hp != nil {
		(*hp)(stage, coord, gid, writers)
	}
}

// Txn is a node-level transaction. Per-shard participant transactions
// are created lazily on first touch, so a transaction that stays on one
// shard carries zero coordination overhead: its commit is exactly the
// standalone engine's commit. Reads across shards see per-shard
// snapshots taken at first touch (read-committed across shards, full
// snapshot isolation within each shard) — the price of not running a
// global timestamp authority.
type Txn struct {
	n    *Node
	subs []*core.Txn
	done bool
}

// Begin starts a transaction.
func (n *Node) Begin() *Txn {
	return &Txn{n: n, subs: make([]*core.Txn, n.nShards)}
}

// sub returns (creating on first touch) the participant on shard i.
func (t *Txn) sub(i int) (*core.Txn, error) {
	if s := t.subs[i]; s != nil {
		return s, nil
	}
	e := t.n.engine(i)
	if e == nil || e.HealthState() == core.StateHalted {
		return nil, fmt.Errorf("shard %d: %w", i, ErrShardDown)
	}
	s := e.Begin()
	t.subs[i] = s
	return s, nil
}

// retryWrite runs one routed write, retrying with backoff when the
// shard rejects it as recoverably ReadOnly (parked by an in-doubt
// transaction the background resolver may clear any moment). Sticky
// ReadOnly, ErrShardDown and semantic errors surface immediately.
func (t *Txn) retryWrite(op func() error) error {
	err := op()
	if err == nil || t.n.routeRetry == nil || !recoverableReadOnly(err) {
		return err
	}
	return t.n.routeRetry.Do(func() error {
		err := op()
		if err != nil && recoverableReadOnly(err) {
			return fault.MarkTransient(err)
		}
		return err
	})
}

func recoverableReadOnly(err error) bool {
	var roe *core.ReadOnlyError
	return errors.As(err, &roe) && roe.Recoverable
}

// Insert routes the row by its leading primary-key column.
func (t *Txn) Insert(table string, rw row.Row) error {
	tm, err := t.n.tableMetaFor(table)
	if err != nil {
		return err
	}
	for _, o := range tm.pkOrds {
		if o >= len(rw) {
			return fmt.Errorf("shard: insert into %q: row has %d columns, pk ordinal %d", table, len(rw), o)
		}
	}
	s, err := t.sub(t.n.r.shardOfRow(rw, tm.pkOrds))
	if err != nil {
		return err
	}
	return t.retryWrite(func() error { return s.Insert(table, rw) })
}

// Get routes a point lookup by primary key.
func (t *Txn) Get(table string, pk []row.Value) (row.Row, bool, error) {
	s, err := t.sub(t.n.r.shardOfKey(pk))
	if err != nil {
		return nil, false, err
	}
	return s.Get(table, pk)
}

// GetCols routes a projected point lookup by primary key (see
// core.Txn.GetCols).
func (t *Txn) GetCols(table string, pk []row.Value, cols []int, dst row.Row) (bool, error) {
	s, err := t.sub(t.n.r.shardOfKey(pk))
	if err != nil {
		return false, err
	}
	return s.GetCols(table, pk, cols, dst)
}

// Update routes a point update by primary key.
func (t *Txn) Update(table string, pk []row.Value, mutate func(row.Row) (row.Row, error)) (bool, error) {
	s, err := t.sub(t.n.r.shardOfKey(pk))
	if err != nil {
		return false, err
	}
	var found bool
	err = t.retryWrite(func() error {
		var uerr error
		found, uerr = s.Update(table, pk, mutate)
		return uerr
	})
	return found, err
}

// UpdateCols routes a point update through the columns at cols by
// primary key (see core.Txn.UpdateCols).
func (t *Txn) UpdateCols(table string, pk []row.Value, cols []int, fn func(row.Row) error) (bool, error) {
	s, err := t.sub(t.n.r.shardOfKey(pk))
	if err != nil {
		return false, err
	}
	var found bool
	err = t.retryWrite(func() error {
		var uerr error
		found, uerr = s.UpdateCols(table, pk, cols, fn)
		return uerr
	})
	return found, err
}

// Delete routes a point delete by primary key.
func (t *Txn) Delete(table string, pk []row.Value) (bool, error) {
	s, err := t.sub(t.n.r.shardOfKey(pk))
	if err != nil {
		return false, err
	}
	var found bool
	err = t.retryWrite(func() error {
		var derr error
		found, derr = s.Delete(table, pk)
		return derr
	})
	return found, err
}

// fanOut runs visit on each shard's participant in shard order (no
// global ordering) until one reports that the caller's callback
// stopped the read. Unavailable shards are skipped and reported through
// a *PartialResultError alongside what the healthy shards produced; any
// other error fails the read outright.
func (t *Txn) fanOut(visit func(s *core.Txn) (more bool, err error)) error {
	var pe *PartialResultError
	for i := 0; i < t.n.nShards; i++ {
		s, err := t.sub(i)
		if err != nil {
			pe = pe.add(i, err)
			continue
		}
		more, err := visit(s)
		if err != nil {
			if !isUnavailable(err) {
				return err
			}
			pe = pe.add(i, err)
			continue
		}
		if !more {
			break
		}
	}
	if pe == nil {
		return nil
	}
	t.n.partialResults.Add(1)
	return pe
}

// ScanTable scans every shard until fn returns false (fanOut gives the
// order and the partial-result contract).
func (t *Txn) ScanTable(table string, fn func(row.Row) bool) error {
	return t.fanOut(func(s *core.Txn) (bool, error) {
		more := true
		err := s.ScanTable(table, func(r row.Row) bool { more = fn(r); return more })
		return more, err
	})
}

// ScanBatches runs the vectorized scan shard by shard until fn returns
// false.
func (t *Txn) ScanBatches(table string, cols []string, batchRows int, fn func(*colseg.Batch) bool) error {
	return t.fanOut(func(s *core.Txn) (bool, error) {
		more := true
		err := s.ScanBatches(table, cols, batchRows, func(b *colseg.Batch) bool { more = fn(b); return more })
		return more, err
	})
}

// IndexScan scans each shard's index in key order until fn returns
// false: the result is ordered within a shard but not globally (a
// global merge would force materializing every shard's stream; callers
// needing total order sort the result).
func (t *Txn) IndexScan(table, index string, from []row.Value, fn func(row.Row) bool) error {
	return t.fanOut(func(s *core.Txn) (bool, error) {
		more := true
		err := s.IndexScan(table, index, from, func(r row.Row) bool { more = fn(r); return more })
		return more, err
	})
}

// LookupCols streams the matches of vals under index to fn, as
// core.Txn.LookupCols does, until fn returns false. When the index is
// led by the table's leading primary-key column and vals binds it,
// every match lives on the shard that value routes to, and only that
// shard is read. Any other lookup reads every shard (indexes are local
// to each shard): a shard that is down is skipped, and the typed
// partial-result error comes back after the healthy shards' rows; each
// row reaches fn once.
func (t *Txn) LookupCols(table, index string, vals []row.Value, cols []int, fn func(row.Row) bool) error {
	if len(vals) > 0 && t.n.nShards > 1 {
		if tm, err := t.n.tableMetaFor(table); err == nil && tm.routes(index) {
			s, err := t.sub(t.n.r.shardOfKey(vals))
			if err != nil {
				return err
			}
			return s.LookupCols(table, index, vals, cols, fn)
		}
	}
	return t.fanOut(func(s *core.Txn) (bool, error) {
		more := true
		err := s.LookupCols(table, index, vals, cols, func(r row.Row) bool { more = fn(r); return more })
		return more, err
	})
}

// Commit commits the transaction. With at most one writing shard this
// is the standalone commit (read-only participants finish for free);
// with several it is two-phase commit: parallel prepares, a durable
// decision record on the coordinator (the lowest-indexed writing
// shard) replicated into the node's decision journal, then parallel
// local commits with the decision written back to every participant's
// own log. A nil return means the transaction is durably committed on
// every shard it touched — even if a shard's local commit marker was
// lost after the decision (that shard's recovery resolves the prepare
// through the coordinator's decision, the journal, or the write-back;
// the loss is counted in CrossShardCommitErrs).
func (t *Txn) Commit() error {
	if t.done {
		return core.ErrTxnDone
	}
	t.done = true

	var writers []int
	for i, s := range t.subs {
		if s != nil && s.HasWrites() {
			writers = append(writers, i)
		}
	}

	if len(writers) <= 1 {
		// Single-shard fast path: zero added coordination.
		var err error
		for i, s := range t.subs {
			if s == nil {
				continue
			}
			if len(writers) == 1 && i == writers[0] {
				err = s.Commit()
			} else {
				s.Abort() // read-only: just release the snapshot
			}
		}
		if err == nil {
			t.n.singleCommits.Add(1)
		}
		return err
	}

	// Cross-shard: read-only participants release first, writers run 2PC.
	for _, s := range t.subs {
		if s == nil || s.HasWrites() {
			continue
		}
		s.Abort()
	}
	coord := writers[0]
	gid := t.subs[coord].ID()

	// Registered before any prepare becomes durable, deregistered after
	// the outcome is settled: the in-doubt resolver must never presume
	// abort for a gid whose decide record is still in flight here.
	t.n.beginCross(uint32(coord), gid)
	defer t.n.endCross(uint32(coord), gid)

	// Phase 1 — parallel prepares. Each participant's prepare rides its
	// own shard's group-commit pipeline; running them concurrently means
	// the transaction pays one log-sync latency, not one per shard.
	prepErrs := make([]error, len(writers))
	var wg sync.WaitGroup
	for k, i := range writers {
		wg.Add(1)
		go func(k, i int) {
			defer wg.Done()
			prepErrs[k] = t.subs[i].Prepare(gid, uint32(coord))
		}(k, i)
	}
	wg.Wait()
	var prepErr error
	for _, err := range prepErrs {
		if err != nil {
			prepErr = err
			break
		}
	}
	if prepErr != nil {
		// A failed prepare rolled its participant back already; the
		// prepared peers abort (presumed abort needs no durable marker).
		for k, i := range writers {
			if prepErrs[k] == nil {
				t.subs[i].AbortPrepared()
			}
		}
		t.n.crossAborts.Add(1)
		return prepErr
	}
	t.n.fireHook(StagePrepared, coord, gid, writers)

	// Phase 2 — the commit point. A failed decision is certainly not
	// durable (wal contract), so aborting every participant is safe.
	if err := t.n.engine(coord).LogDecision(gid, true); err != nil {
		for _, i := range writers {
			t.subs[i].AbortPrepared()
		}
		t.n.crossAborts.Add(1)
		return err
	}
	// Replicate the decision into the node journal (synchronously — the
	// journal only helps if it survives losing the coordinator). A
	// journal write failure doesn't fail the commit: the coordinator's
	// record is the authority and is already durable.
	_ = t.n.journal.record(uint32(coord), gid, true)
	t.n.fireHook(StageDecided, coord, gid, writers)

	// Phase 3 — parallel local commits plus decision write-back: each
	// participant learns the outcome in its own log, so its next
	// recovery resolves locally even if the coordinator is unreachable.
	// The transaction is committed regardless of these outcomes.
	commitErrs := make([]error, len(writers))
	for k, i := range writers {
		wg.Add(1)
		go func(k, i int) {
			defer wg.Done()
			commitErrs[k] = t.subs[i].CommitPrepared()
			if i != coord {
				if e := t.n.engine(i); e != nil {
					e.NoteDecision(gid, uint32(coord), true)
				}
			}
		}(k, i)
	}
	wg.Wait()
	for _, err := range commitErrs {
		if err != nil {
			t.n.crossCommitErrs.Add(1)
		}
	}
	t.n.crossCommits.Add(1)
	return nil
}

// Abort rolls back every participant.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	for _, s := range t.subs {
		if s != nil {
			s.Abort()
		}
	}
}
