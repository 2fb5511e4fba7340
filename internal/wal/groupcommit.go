package wal

import (
	"errors"
	"sync/atomic"
	"time"
)

// ErrHalted is delivered to committers whose log was torn down by
// AbortGroupCommit before their records became durable (crash
// simulation: the commit was never acknowledged).
var ErrHalted = errors.New("wal: group commit halted before the record became durable")

// Group commit: the committers form each group among themselves, with no
// goroutine of the log's own. A committer in WaitDurable whose LSN is not
// durable joins the forming round. If no round is in flight, it leads
// that round: on its own goroutine it flushes through the round's
// highest LSN, one backend write plus one Sync, and releases every
// committer that joined meanwhile. One that arrives while a round is in
// flight waits for it to finish; then a member of the next round leads
// it. N committers arriving during a sync pay one sync between them —
// the log consolidation of Aether (Johnson et al., VLDB 2010) on both
// BTrim logs. A lone committer on an idle log flushes at once.
//
// A round may linger before it syncs, for at most one sync, to gather a
// writer already in flight (see linger). Without that, two committers
// that alternate — each arriving while the other's sync is in flight —
// never share one.

// Peers counts the writers on one log: transactions that are writing
// and will commit to it, including the committers already in its
// forming round. A round may wait for the writers beyond those it holds.
// The engine keeps one per log (core: logPeers). A read-only
// transaction, one blocked in a row-lock wait and a prepared one
// waiting for its decision are not in it.
type Peers struct{ n atomic.Int64 }

// Add moves the count by delta.
func (p *Peers) Add(delta int64) { p.n.Add(delta) }

// InFlight returns the number of writers counted.
func (p *Peers) InFlight() int64 { return p.n.Load() }

// gcRound is one group of committers served by one flush. Its fields
// are guarded by Log.gcMu; err is final once the round has finished.
type gcRound struct {
	n     int       // committers in the round, its leader included
	top   uint64    // highest LSN among them
	first time.Time // arrival of the first
	led   bool      // a member has taken the lead
	err   error     // the round's outcome
	done  chan struct{}
	end   time.Time // when the round released the committers waiting on done
}

// SetPeers hands the log its count of writers in flight, which a round
// may wait for (see linger). Call it at open time, beside SetRetrier;
// without one no round waits.
func (l *Log) SetPeers(p *Peers) { l.peers = p }

// AbortGroupCommit tears the commit path down crash-style: rounds that
// have not yet flushed fail their committers with ErrHalted (unless
// their LSN is already durable), and so does every later WaitDurable. A
// lingering leader is woken. It returns once a round already flushing
// has left Flush, so afterwards nothing reaches the backend through the
// commit path, and the durable state stays exactly what a crash at this
// instant would leave (Engine.Halt).
func (l *Log) AbortGroupCommit() {
	l.gcMu.Lock()
	l.gcHalted.Store(true)
	l.wakeLeader()
	l.await(l.gcBusy)
}

// WaitDurable blocks until every record with LSN <= lsn is durable.
func (l *Log) WaitDurable(lsn uint64) error {
	if l.flushedLSN.Load() >= lsn {
		return nil
	}
	at := time.Now()
	l.gcMu.Lock()
	r := l.gcNext
	if r == nil {
		r = &gcRound{first: at}
		l.gcNext = r
	}
	r.n++
	r.top = max(r.top, lsn)
	l.wakeLeader()
	for !r.led && l.gcBusy != nil {
		l.await(l.gcBusy)
		l.gcMu.Lock()
	}
	var err error
	if !r.led {
		err = l.lead(r)
	} else {
		if l.gcBusy == r {
			l.await(r)
		} else { // r finished while this committer waited for the round before
			l.gcMu.Unlock()
		}
		l.released.Add(-1)
		err = r.err
	}
	if err != nil && l.flushedLSN.Load() >= lsn {
		err = nil // a racing flush made it durable before the failure: its commit stands
	}
	l.commitWait.Observe(time.Since(at))
	return err
}

// await blocks until round r, in flight, finishes; r == nil: none is.
// gcMu is held on entry and released.
func (l *Log) await(r *gcRound) {
	if r == nil {
		l.gcMu.Unlock()
		return
	}
	if r.done == nil {
		r.done = make(chan struct{})
	}
	done := r.done
	l.gcMu.Unlock()
	<-done
	l.wakeNs.Store(int64(time.Since(r.end)))
}

// wakeLeader ends a lingering leader's wait. gcMu is held.
func (l *Log) wakeLeader() {
	if l.gcLinger != nil {
		close(l.gcLinger)
		l.gcLinger = nil
	}
}

// lead runs round r: it lingers, closes the round to newcomers, flushes
// through its highest LSN, releases its members and returns the
// outcome. gcMu is held on entry and released. A round that finds the
// log halted fails without touching the backend.
func (l *Log) lead(r *gcRound) error {
	r.led = true
	l.gcBusy = r
	l.linger(r)
	l.gcNext = nil
	if l.gcHalted.Load() {
		r.err = ErrHalted
	} else {
		l.gcMu.Unlock()
		r.err = l.Flush(r.top)
		l.syncEnd = time.Now()
		if r.err != nil {
			// One bad flush fans out to every committer in the round; they
			// all roll back in memory, so none of their appended frames may
			// ever become durable.
			l.poison(r.err)
		}
		l.gcMu.Lock()
		l.contended = r.n > 1 || l.gcNext != nil
		if r.err == nil {
			l.stats.GroupFlushes.Add(1)
			l.stats.GroupedCommits.Add(int64(r.n))
			l.groupSize.Observe(int64(r.n))
		}
	}
	l.gcBusy = nil
	l.released.Add(int64(r.n - 1))
	err := r.err
	if r.done != nil {
		r.end = time.Now()
		close(r.done)
	}
	l.gcMu.Unlock()
	return err
}

// linger holds round r open before it syncs, for a writer already in
// flight. gcMu is held; linger releases it while it waits. It waits
// only when all three hold:
//
//   - a peer is coming: there are writers outside the round (see
//     outside), beyond those presumed idle. When a wait expires with
//     nobody arriving, every writer then counted outside the round is
//     presumed idle (an open transaction its client left alone, say)
//     until the count drops below that level;
//   - the log is contended: the last round served more than one
//     committer, or one arrived while its sync was in flight. A lone
//     committer, even beside an idle open transaction, never waits;
//   - the bound has time left: the wait lasts at most as long as the
//     log's syncs take — the shorter of its last two, so that one sync
//     slowed by the host does not make a free device look slow —
//     counted from when the round could have begun: the arrival of its
//     first committer or the end of the previous sync, whichever is
//     later. The time left must exceed what it took the last committer
//     a round released to wake (none measured yet: no wait), or the
//     wait could gather no one. A log whose syncs cost nothing has less
//     left than any wake, so it never parks.
//
// The wait ends at the first committer to arrive, at the bound, or on
// AbortGroupCommit. Every figure it uses is measured on the log itself,
// so there is nothing to tune. The state it keeps (contended, idle,
// syncEnd) belongs to whichever committer leads: one round at a time.
func (l *Log) linger(r *gcRound) {
	if !l.contended || l.peers == nil || l.flushedLSN.Load() >= r.top {
		return // nothing to wait for, or nothing left to flush
	}
	queued := r.n
	n := l.outside(r)
	l.idle = min(l.idle, n) // writers presumed idle that have left
	if n <= l.idle {
		return
	}
	from := r.first
	if from.Before(l.syncEnd) {
		from = l.syncEnd
	}
	left := time.Duration(min(l.syncNs[0].Load(), l.syncNs[1].Load())) - time.Since(from)
	if wake := time.Duration(l.wakeNs.Load()); wake == 0 || left <= wake {
		return
	}
	l.stats.LingerRounds.Add(1)
	start := time.Now()
	arrived := make(chan struct{})
	l.gcLinger = arrived
	l.gcMu.Unlock()
	timer := time.NewTimer(left)
	select {
	case <-arrived:
	case <-timer.C:
	}
	timer.Stop()
	l.gcMu.Lock()
	l.gcLinger = nil
	switch {
	case r.n > queued:
		l.stats.LingerGathered.Add(1)
	case !l.gcHalted.Load(): // the bound expired
		l.idle = l.outside(r)
	}
	l.stats.LingerNs.Add(int64(time.Since(start)))
}

// outside counts the writers beyond round r: those l.peers counts, and
// the committers a finished round released that have not yet left
// WaitDurable, each on its way back to a client that writes again. A
// leader on one CPU runs on before the committers it released, and its
// own transaction may have taken the slot they handed on; without them
// it would see no peer coming.
func (l *Log) outside(r *gcRound) int64 {
	return max(l.peers.InFlight()+l.released.Load()-int64(r.n), 0)
}
