package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/rid"
	"repro/internal/wal"
)

// Two-phase commit across engine shards (DESIGN.md §12). Each shard is
// a complete engine with its own logs; a cross-shard transaction is a
// set of per-shard participant transactions tied together by a global
// transaction id. The protocol layers on the existing group-commit
// pipeline:
//
//  1. Prepare (every participant): the participant's records become
//     durable exactly as in a normal commit, except the syslogs marker
//     is a RecPrepare (carrying the global id and coordinator shard)
//     instead of a RecCommit, and the sysimrslogs IMRSCommit is always
//     flagged contingent (Aux=1) — recovery applies it only if the
//     local syslogs outcome is commit.
//  2. Decide (coordinator shard only): a RecDecide for the global id is
//     made durable in the coordinator's syslogs. This record is the
//     commit point of the whole transaction.
//  3. CommitPrepared (every participant): a local RecCommit is logged
//     and the transaction publishes in memory. The local RecCommit is
//     an optimization — if it is lost, recovery resolves the prepare
//     through the coordinator's decision.
//
// Presumed abort: a prepare with no local RecCommit/RecAbort and no
// coordinator decision is a loser. The wal layer's contract makes that
// sound: WaitDurable returning an error means the record is not durable
// and can never become durable (a failed commit flush poisons the log
// and scrubs back to the durable watermark; a halted pipeline never
// flushes again), so a failed Decide really did not commit.

// TwoPCOutcome is a resolver's verdict for an in-doubt prepared
// transaction found during recovery.
type TwoPCOutcome uint8

// Resolver verdicts.
const (
	// TwoPCUnknown: the coordinator's decisions could not be read. The
	// engine treats the transaction as aborted for replay purposes but
	// parks itself ReadOnly — serving writes on top of an unresolvable
	// in-doubt transaction could diverge from its peers.
	TwoPCUnknown TwoPCOutcome = iota
	// TwoPCCommit: the coordinator durably decided commit.
	TwoPCCommit
	// TwoPCAbort: the coordinator durably decided abort, or has no
	// decision on record (presumed abort).
	TwoPCAbort
)

// String implements fmt.Stringer.
func (o TwoPCOutcome) String() string {
	switch o {
	case TwoPCCommit:
		return "commit"
	case TwoPCAbort:
		return "abort"
	default:
		return "unknown"
	}
}

// twopcCounters is the engine's cross-shard commit accounting.
type twopcCounters struct {
	prepares        atomic.Int64 // participant prepares made durable
	preparedCommits atomic.Int64 // prepared transactions committed
	preparedAborts  atomic.Int64 // prepared transactions rolled back
	decisions       atomic.Int64 // coordinator decision records logged
}

// Prepare is phase one of a cross-shard commit: it makes the
// transaction's records durable under a RecPrepare marker carrying the
// global transaction id and the coordinator shard index, and reserves
// the commit timestamp the transaction will publish at. After a
// successful Prepare the transaction holds its row locks and must be
// finished with CommitPrepared (once the coordinator's decision is
// durable) or AbortPrepared. On error the transaction has rolled back.
func (t *Txn) Prepare(gid uint64, coordShard uint32) error {
	if t.done {
		return ErrTxnDone
	}
	if t.prepared {
		return fmt.Errorf("core: transaction %d already prepared", t.id)
	}
	ts := t.e.clock.Tick()
	// The prepare marker always goes to syslogs — even for IMRS-only
	// participants — because recovery's in-doubt resolution is keyed off
	// the syslogs prepare set; the IMRS half is therefore always
	// contingent on the syslogs outcome (local RecCommit, or the
	// coordinator's decide record resolved into the winner set).
	pr := wal.Record{Type: wal.RecPrepare, Table: coordShard, RID: rid.RID(gid)}
	if err := t.e.logCommit(t.id, ts, t.imrsRecs, t.sysRecs, &pr, &t.fl, false); err != nil {
		t.rollbackAfterLogError()
		return err
	}
	t.prepared = true
	t.prepTS = ts
	t.e.twopc.prepares.Add(1)
	return nil
}

// CommitPrepared is phase three: the caller guarantees the
// coordinator's commit decision is already durable. The transaction is
// therefore committed no matter what happens here — a failed local
// RecCommit flush is surfaced through the health FSM (the poisoned log
// forces the shard ReadOnly) and returned for accounting, but the
// transaction still publishes in memory: recovery will re-apply it from
// the prepare records plus the coordinator's decision.
func (t *Txn) CommitPrepared() error {
	if t.done {
		return ErrTxnDone
	}
	if !t.prepared {
		return fmt.Errorf("core: CommitPrepared on an unprepared transaction")
	}
	err := t.e.logCommit(t.id, t.prepTS, nil, nil, &wal.Record{Type: wal.RecCommit}, nil, false)
	if err != nil {
		err = fmt.Errorf("core: prepared transaction %d committed, local commit marker lost: %w", t.id, err)
	}
	t.publish(t.prepTS)
	t.e.twopc.preparedCommits.Add(1)
	t.finish()
	return err
}

// AbortPrepared rolls back a transaction after Prepare (or after a
// failed Prepare on a peer participant). The RecAbort it logs is a
// best-effort optimization that spares the next recovery a resolver
// lookup; presumed abort makes its durability unnecessary, so no flush
// is awaited.
func (t *Txn) AbortPrepared() {
	if t.done {
		return
	}
	if t.prepared {
		ar := wal.Record{Type: wal.RecAbort, TxnID: t.id}
		_, _ = t.e.syslog.Append(&ar)
		t.e.twopc.preparedAborts.Add(1)
	}
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.undo[i]()
	}
	t.finish()
}

// LogDecision durably records the coordinator's decision for global
// transaction gid in this engine's syslogs. A nil return means the
// decision IS durable (the commit point, for commit=true); an error
// means it is not and never will be — the wal contract guarantees a
// failed commit-path flush cannot surface later — so the caller may
// safely abort every participant.
func (e *Engine) LogDecision(gid uint64, commit bool) error {
	if err := e.health.writable(); err != nil {
		return err
	}
	aux := uint8(0)
	if commit {
		aux = 1
	}
	rec := wal.Record{Type: wal.RecDecide, TxnID: gid, Table: e.cfg.ShardID, RID: rid.RID(gid), CommitTS: e.clock.Now(), Aux: aux}
	lsn, err := e.syslog.Append(&rec)
	if err == nil {
		err = e.syslog.WaitDurable(lsn)
	}
	if err != nil {
		// Only the syslog can be poisoned here, and it never swaps (unlike
		// imrslog), so this is safe without holding ckptMu.
		if perr := e.syslog.Poisoned(); perr != nil {
			e.health.forceReadOnly(perr)
		}
		return err
	}
	e.twopc.decisions.Add(1)
	e.noteDecision(e.cfg.ShardID, gid, commit)
	return nil
}

// decisionKey scopes a global transaction id by the coordinator shard
// that issued it: gids are the coordinator's local transaction ids and
// collide across coordinators.
type decisionKey struct {
	coord uint32
	gid   uint64
}

// noteDecision indexes one known decision in memory.
func (e *Engine) noteDecision(coord uint32, gid uint64, commit bool) {
	e.decMu.Lock()
	if e.decIndex == nil {
		e.decIndex = make(map[decisionKey]bool)
	}
	e.decIndex[decisionKey{coord, gid}] = commit
	e.decMu.Unlock()
}

// DecisionFor reports this engine's durable knowledge of the 2PC
// outcome for (coord, gid): decisions it logged as the coordinator and
// decisions peers wrote back. known=false means this engine has no
// record — NOT presumed abort; only the coordinator's complete log can
// presume.
func (e *Engine) DecisionFor(gid uint64, coord uint32) (commit, known bool) {
	e.decMu.RLock()
	commit, known = e.decIndex[decisionKey{coord, gid}]
	e.decMu.RUnlock()
	return commit, known
}

// NoteDecision records a decision learned from the coordinator (phase-3
// write-back or the node-level resolver) in this engine's own syslogs,
// so the next recovery resolves the outcome locally without reaching
// the coordinator. The append is best-effort and rides the next group
// commit — durability is an optimization here, the coordinator's record
// stays authoritative — and is skipped entirely when the engine cannot
// write. The in-memory index is updated regardless so runtime probes
// see it.
func (e *Engine) NoteDecision(gid uint64, coord uint32, commit bool) {
	e.noteDecision(coord, gid, commit)
	if e.health.writable() != nil {
		return
	}
	aux := uint8(0)
	if commit {
		aux = 1
	}
	rec := wal.Record{Type: wal.RecDecide, TxnID: gid, Table: coord, RID: rid.RID(gid), Aux: aux}
	_, _ = e.syslog.Append(&rec)
}

// InDoubtTxn is one prepared transaction recovery could not resolve:
// the local participant transaction, the global id, and the coordinator
// shard whose decision is missing.
type InDoubtTxn struct {
	LocalID uint64 // participant's local transaction id
	GID     uint64 // global transaction id (coordinator's local id)
	Coord   uint32 // coordinator shard index
	TS      uint64 // reserved commit timestamp from the prepare
}

// UnresolvedInDoubt returns the in-doubt transactions that parked this
// engine ReadOnly at recovery, empty once resolved (or if recovery
// resolved everything).
func (e *Engine) UnresolvedInDoubt() []InDoubtTxn {
	e.inDoubtMu.Lock()
	defer e.inDoubtMu.Unlock()
	return append([]InDoubtTxn(nil), e.inDoubtPending...)
}

// ResolveInDoubtAborted resolves every pending in-doubt transaction as
// aborted — the caller has established that no coordinator decision
// exists (presumed abort against a live or recovered coordinator log) —
// and exits the recoverable ReadOnly park in place. Recovery already
// replayed these transactions as losers, so no data movement is needed;
// durable abort markers are logged so the next recovery does not
// re-park, then the health FSM transitions out of ReadOnly.
func (e *Engine) ResolveInDoubtAborted() error {
	e.inDoubtMu.Lock()
	defer e.inDoubtMu.Unlock()
	if len(e.inDoubtPending) == 0 {
		return fmt.Errorf("core: no unresolved in-doubt transactions")
	}
	if err := e.syslog.Poisoned(); err != nil {
		return fmt.Errorf("core: cannot resolve in-doubt transactions: %w", err)
	}
	var lsn uint64
	for _, p := range e.inDoubtPending {
		ar := wal.Record{Type: wal.RecAbort, TxnID: p.LocalID}
		l, err := e.syslog.Append(&ar)
		if err != nil {
			return fmt.Errorf("core: abort marker for in-doubt txn %d: %w", p.LocalID, err)
		}
		lsn = l
	}
	if err := e.syslog.Flush(lsn); err != nil {
		return fmt.Errorf("core: flush in-doubt abort markers: %w", err)
	}
	n := len(e.inDoubtPending)
	if err := e.health.exitReadOnly(fmt.Sprintf("%d in-doubt transaction(s) resolved abort", n)); err != nil {
		return err
	}
	e.inDoubtPending = nil
	return nil
}
