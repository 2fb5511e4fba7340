package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/imrs"
	"repro/internal/rid"
	"repro/internal/row"
	"repro/internal/txn"
	"repro/internal/wal"
)

// txnScratch is the recyclable allocation footprint of a transaction:
// the mutation buffers, the lock set, a reusable point-op key buffer
// and a bump arena for encoded row images. Pooling it makes the
// steady-state DML path allocate only what the operation semantically
// requires (the Txn header, decoded rows, index keys) instead of
// rebuilding this scaffolding per transaction.
type txnScratch struct {
	locks      map[rid.RID]struct{}
	sysRecs    []wal.Record
	imrsRecs   []wal.Record
	undo       []func()
	atCommit   []func(ts uint64)
	staged     []*imrs.Version
	newEntries []*imrs.Entry

	key    row.Key // point-op key buffer (Get/Update/Delete)
	prefix row.Key // index-lookup prefix buffer (lookup)

	// The read path (readRowAt): the image of the row being read, the
	// key read off it, and the buffer a page-store or cold-segment row
	// is copied into. All three are reused by the transaction's next read.
	img    row.Image
	vkey   row.Key
	rowBuf []byte

	enc    []byte // bump arena for page-store row images and row deltas
	encOff int

	vals row.Row // the column values UpdateCols hands fn, borrowed for the call
}

var scratchPool = sync.Pool{New: func() any {
	return &txnScratch{locks: make(map[rid.RID]struct{})}
}}

// Slices recycled through the pool are capacity-capped so one huge
// transaction doesn't pin its peak footprint forever (the same rule the
// wal encode buffers follow).
const (
	maxScratchItems = 1024
	maxScratchBytes = 64 << 10
)

func recycleRecords(s []wal.Record) []wal.Record {
	if cap(s) > maxScratchItems {
		return nil
	}
	clear(s) // drop Before/After references
	return s[:0]
}

// encBuf returns an empty slice with capacity n carved from the txn's
// encode arena; the arena block is reused across pooled transactions.
// Callers append exactly the encoded image and may hand the result to
// the WAL records and storage layers, all of which copy at use time
// (wal.Log.Append into its pending buffer, heap/btree into page
// frames), so recycling at finish() is safe.
func (t *Txn) encBuf(n int) []byte {
	sc := t.sc
	if cap(sc.enc)-sc.encOff < n {
		sz := 4 << 10
		if n > sz {
			sz = n
		}
		// The abandoned block stays alive through the records that
		// reference it until they are cleared; the arena keeps only the
		// fresh one.
		sc.enc = make([]byte, 0, sz)
		sc.encOff = 0
	}
	b := sc.enc[sc.encOff : sc.encOff : sc.encOff+n]
	sc.encOff += n
	return b
}

// pkKey encodes a primary-key lookup key into the txn's reusable key
// buffer. The result is only valid until the next pkKey call; every
// consumer (index search, hash probe, byte comparison) uses it
// transiently.
func (t *Txn) pkKey(pk []row.Value) row.Key {
	k := row.EncodeKey(t.sc.key[:0], pk...)
	t.sc.key = k
	return k
}

// Txn is a transaction. It may touch page-store rows (undo/redo logged
// in syslogs, applied in place under row locks) and IMRS rows (staged as
// uncommitted versions, redo-only logged in sysimrslogs at commit).
//
// Commit ordering makes the pair of logs crash-atomic: the IMRS records
// and their IMRSCommit marker flush first (flagged as contingent when
// the transaction also wrote the page store), then the syslogs records
// and the Commit marker. Recovery treats a mixed transaction as
// committed only if the syslogs Commit exists.
type Txn struct {
	e      *Engine
	id     uint64
	snap   uint64
	reader txn.SnapshotRef // IMRS-GC reader registration
	done   bool

	locks map[rid.RID]struct{}

	sysRecs  []wal.Record
	imrsRecs []wal.Record

	undo     []func()          // applied in reverse on abort
	atCommit []func(ts uint64) // applied after the commit decision is durable

	staged     []*imrs.Version // versions to stamp with the commit TS
	newEntries []*imrs.Entry   // entries to hand to GC queue maintenance

	// Two-phase-commit state (twopc.go): set by Prepare, consumed by
	// CommitPrepared/AbortPrepared. Zero on ordinary transactions.
	prepared bool
	prepTS   uint64

	fl inFlight // t's slots in the logs' counts of writers (logPeers)

	sc *txnScratch // recycled buffers backing the fields above; nil once finished
}

// HasWrites reports whether the transaction has buffered any log
// records — i.e. whether committing it requires durability work. The
// sharded node uses it to keep single-shard transactions on the plain
// commit path (read-only participants commit for free).
func (t *Txn) HasWrites() bool { return len(t.sysRecs) > 0 || len(t.imrsRecs) > 0 }

// logPeers is one log's count of writers (wal.Peers), which a
// group-commit round of that log may wait for (DESIGN.md §Group commit).
// A transaction takes a slot at its first write statement: its records
// are buffered only at the statement's end, too late for a round that
// decides meanwhile. When it commits, logCommit hands the slot on once
// the records are appended: it stays counted, spare, for the client's
// next transaction, which takes it at its own first write statement. A
// closed-loop client writes again some microseconds after its commit
// returns — after the next round has decided — and the spare is what
// that round sees. A slot is given up when its transaction aborts or
// prepares and for the length of a row-lock wait. A spare whose client
// never writes again stays counted; a round presumes it idle after one
// wait that it lets expire (wal: Log.linger).
type logPeers struct {
	wal.Peers
	spare atomic.Int64 // slots handed on by committed writers
}

// take gives a writer a slot: a spare one if there is one.
func (p *logPeers) take() {
	for {
		n := p.spare.Load()
		if n <= 0 {
			p.Add(1)
			return
		}
		if p.spare.CompareAndSwap(n, n-1) {
			return
		}
	}
}

// inFlight records which logs hold a slot for a transaction.
type inFlight struct{ imrs, sys bool }

// join gives f a slot in each log named.
func (e *Engine) join(f *inFlight, imrs, sys bool) {
	if imrs && !f.imrs {
		f.imrs = true
		e.imrsPeers.take()
	}
	if sys && !f.sys {
		f.sys = true
		e.sysPeers.take()
	}
}

// leave gives up f's slots in the logs named, or with handOn keeps them
// counted as spares; a nil f (a caller of logCommit that is not a user
// transaction) holds none.
func (e *Engine) leave(f *inFlight, imrs, sys, handOn bool) {
	if f == nil {
		return
	}
	if imrs && f.imrs {
		f.imrs = false
		e.imrsPeers.give(handOn)
	}
	if sys && f.sys {
		f.sys = false
		e.sysPeers.give(handOn)
	}
}

// give gives up a slot, or with handOn keeps it counted as a spare.
func (p *logPeers) give(handOn bool) {
	if handOn {
		p.spare.Add(1)
	} else {
		p.Add(-1)
	}
}

// Begin starts a transaction with a snapshot of the current commit
// timestamp. It registers as an IMRS-GC reader before it reads the
// clock: nothing retired after the registration is freed until the
// transaction finishes, and nothing retired before it is reachable
// from the snapshot (see package imrsgc).
func (e *Engine) Begin() *Txn {
	e.ckptMu.RLock()
	reader := e.snaps.Register(e.gc.Epoch())
	t := &Txn{
		e:      e,
		id:     e.nextTxnID.Add(1),
		snap:   e.clock.Now(),
		reader: reader,
	}
	sc := scratchPool.Get().(*txnScratch)
	t.sc = sc
	t.locks = sc.locks
	t.sysRecs = sc.sysRecs
	t.imrsRecs = sc.imrsRecs
	t.undo = sc.undo
	t.atCommit = sc.atCommit
	t.staged = sc.staged
	t.newEntries = sc.newEntries
	return t
}

// ID returns the transaction id.
func (t *Txn) ID() uint64 { return t.id }

// Snapshot returns the transaction's snapshot timestamp.
func (t *Txn) Snapshot() uint64 { return t.snap }

// lock acquires (once) the txn-duration exclusive lock on r.
func (t *Txn) lock(r rid.RID) error {
	if _, held := t.locks[r]; held {
		return nil
	}
	if err := t.waitLock(r); err != nil {
		return err
	}
	t.locks[r] = struct{}{}
	return nil
}

// waitLock acquires r's row lock, blocking if another transaction holds
// it. A writer waiting for a lock is not about to commit, so it gives
// up its slots in the logs' counts of writers for the wait.
func (t *Txn) waitLock(r rid.RID) error {
	if t.e.locks.TryLock(t.id, r) {
		return nil
	}
	was := t.fl
	t.e.leave(&t.fl, true, true, false)
	err := t.e.locks.Lock(t.id, r)
	if was.imrs || was.sys {
		t.e.join(&t.fl, was.imrs, was.sys)
	}
	return err
}

// tryLock is the conditional variant (pack integration and caching).
func (t *Txn) tryLock(r rid.RID) bool {
	if _, held := t.locks[r]; held {
		return true
	}
	if !t.e.locks.TryLock(t.id, r) {
		return false
	}
	t.locks[r] = struct{}{}
	return true
}

func (t *Txn) releaseAll() {
	for r := range t.locks {
		t.e.locks.Unlock(t.id, r)
	}
	if len(t.locks) > maxScratchItems {
		// Maps never shrink on clear; don't let one lock-heavy
		// transaction pin a huge table in the pool.
		t.sc.locks = make(map[rid.RID]struct{})
	} else {
		clear(t.locks)
	}
}

func (t *Txn) finish() {
	t.done = true
	t.e.leave(&t.fl, true, true, false)
	t.releaseAll()
	t.e.snaps.Unregister(t.reader)
	t.e.ckptMu.RUnlock()
	t.recycle()
}

// recycle harvests the transaction's buffers back into the scratch
// pool. Every element reference is cleared first (wal records hold row
// images, closures capture entries/versions), and slices that grew past
// the recycle cap are dropped rather than pinned. The Txn's own fields
// are nil'ed so a use-after-finish bug touches nil instead of a buffer
// owned by a later transaction.
func (t *Txn) recycle() {
	sc := t.sc
	t.sc = nil
	sc.sysRecs = recycleRecords(t.sysRecs)
	sc.imrsRecs = recycleRecords(t.imrsRecs)
	if cap(t.undo) <= maxScratchItems {
		clear(t.undo)
		sc.undo = t.undo[:0]
	} else {
		sc.undo = nil
	}
	if cap(t.atCommit) <= maxScratchItems {
		clear(t.atCommit)
		sc.atCommit = t.atCommit[:0]
	} else {
		sc.atCommit = nil
	}
	if cap(t.staged) <= maxScratchItems {
		clear(t.staged)
		sc.staged = t.staged[:0]
	} else {
		sc.staged = nil
	}
	if cap(t.newEntries) <= maxScratchItems {
		clear(t.newEntries)
		sc.newEntries = t.newEntries[:0]
	} else {
		sc.newEntries = nil
	}
	t.sysRecs, t.imrsRecs, t.undo, t.atCommit = nil, nil, nil, nil
	t.staged, t.newEntries, t.locks = nil, nil, nil
	if cap(sc.enc) > maxScratchBytes {
		sc.enc = nil
	}
	sc.encOff = 0
	if cap(sc.key) > maxScratchBytes {
		sc.key = nil
	}
	if cap(sc.prefix) > maxScratchBytes {
		sc.prefix = nil
	}
	sc.img.Release()
	clear(sc.vals[:cap(sc.vals)])
	if cap(sc.vkey) > maxScratchBytes {
		sc.vkey = nil
	}
	if cap(sc.rowBuf) > maxScratchBytes {
		sc.rowBuf = nil
	}
	scratchPool.Put(sc)
}

// Commit makes the transaction durable and visible.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	if !t.HasWrites() {
		// Read-only.
		t.finish()
		return nil
	}
	ts := t.e.clock.Tick()
	var marker *wal.Record
	if len(t.sysRecs) > 0 {
		marker = &wal.Record{Type: wal.RecCommit}
	}
	if err := t.e.logCommit(t.id, ts, t.imrsRecs, t.sysRecs, marker, &t.fl, true); err != nil {
		t.rollbackAfterLogError()
		return err
	}
	t.publish(ts)
	t.finish()
	return nil
}

// publish makes a transaction whose commit decision is durable visible
// at ts: staged versions are stamped, deferred commit actions run, and
// new entries, whose images sysimrslogs now holds, are handed to GC
// queue maintenance.
func (t *Txn) publish(ts uint64) {
	for _, v := range t.staged {
		t.e.store.Commit(v, ts)
	}
	for _, fn := range t.atCommit {
		fn(ts)
	}
	for _, en := range t.newEntries {
		en.Touch(ts)
		en.MarkLogged()
		t.e.gc.NewRow(en)
	}
}

// rollbackAfterLogError unwinds in-memory state when logCommit failed.
// The unwound work cannot surface later and a poisoned log has already
// forced the engine ReadOnly (see logCommit).
func (t *Txn) rollbackAfterLogError() {
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.undo[i]()
	}
	t.finish()
}

// Abort undoes the transaction.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.undo[i]()
	}
	t.finish()
}
