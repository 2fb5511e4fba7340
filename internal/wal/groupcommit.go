package wal

import (
	"errors"
	"runtime"
	"sync/atomic"
	"time"
)

// ErrHalted is delivered to committers whose group-commit pipeline was
// torn down by AbortGroupCommit before their records became durable
// (crash simulation: the commit was never acknowledged).
var ErrHalted = errors.New("wal: group commit halted before the record became durable")

// Group commit: a dedicated flusher goroutine per Log coalesces
// concurrent committers' durability requests into one backend write plus
// one Sync covering the highest pending LSN, then wakes every waiter
// under the new durable watermark. N committers arriving while a sync is
// in flight pay one sync between them instead of N serialized syncs —
// the log-coalescing idea of Aether (Johnson et al., VLDB 2010) applied
// to both BTrim logs.
//
// A round may linger before it syncs, for at most one sync, to gather a
// writer already in flight (see linger). Without that, two committers
// that alternate — each arriving while the other's sync is in flight —
// never share one.
//
// With no flusher running — before the engine finishes recovery, after
// StopGroupCommit, and on the decision journal — WaitDurable degrades to
// a direct synchronous Flush.

// Peers counts the writers on one log: transactions that are writing
// and will commit to it, including the committers already queued in its
// flush round. A round may wait for the writers beyond those it holds.
// The engine keeps one per log (core: logPeers). A read-only
// transaction, one blocked in a row-lock wait and a prepared one
// waiting for its decision are not in it.
type Peers struct{ n atomic.Int64 }

// Add moves the count by delta.
func (p *Peers) Add(delta int64) { p.n.Add(delta) }

// InFlight returns the number of writers counted.
func (p *Peers) InFlight() int64 { return p.n.Load() }

// gcWaiter is one committer blocked in WaitDurable.
type gcWaiter struct {
	lsn uint64
	ch  chan error
	at  time.Time
}

// StartGroupCommit launches the flusher goroutine; peers (non-nil) is
// the count of writers in flight its rounds may wait for. It is a no-op
// if the pipeline is already running.
func (l *Log) StartGroupCommit(peers *Peers) {
	l.gcMu.Lock()
	defer l.gcMu.Unlock()
	if l.gcRunning {
		return
	}
	l.gcRunning = true
	l.peers = peers
	l.contended, l.idle = false, 0
	l.gcWake = make(chan struct{}, 1)
	l.gcStop = make(chan struct{})
	l.gcDone = make(chan struct{})
	go l.flusherLoop(l.gcWake, l.gcStop, l.gcDone)
}

// StopGroupCommit stops the flusher goroutine, completing any committers
// still waiting (their records flush in one final group). Subsequent
// WaitDurable calls fall back to direct synchronous flushes. No-op if
// the pipeline is not running.
func (l *Log) StopGroupCommit() { l.stopGroupCommit(false) }

// AbortGroupCommit tears the pipeline down crash-style: no final flush
// runs, queued committers receive ErrHalted (unless their LSN is
// already durable), and later WaitDurable calls fail the same way
// instead of falling back to a direct flush. Nothing further reaches
// the backend through the commit path, so the durable state stays
// exactly what a crash at this instant would leave (Engine.Halt).
func (l *Log) AbortGroupCommit() { l.stopGroupCommit(true) }

func (l *Log) stopGroupCommit(abort bool) {
	l.gcMu.Lock()
	if abort {
		// Set before the flusher drains so its final round fails rather
		// than flushes, and so fallback flushes are refused even when the
		// pipeline never ran.
		l.gcHalted.Store(true)
	}
	if !l.gcRunning {
		l.gcMu.Unlock()
		return
	}
	l.gcRunning = false
	stop, done := l.gcStop, l.gcDone
	l.gcMu.Unlock()
	close(stop)
	<-done
}

// WaitDurable blocks until every record with LSN <= lsn is durable. With
// the pipeline running it enqueues a waiter for the flusher; otherwise
// it flushes directly (synchronous fallback).
func (l *Log) WaitDurable(lsn uint64) error {
	if l.flushedLSN.Load() >= lsn {
		return nil
	}
	l.gcMu.Lock()
	if !l.gcRunning {
		halted := l.gcHalted.Load()
		l.gcMu.Unlock()
		if halted {
			return ErrHalted
		}
		start := time.Now()
		err := l.Flush(lsn)
		l.commitWait.Observe(time.Since(start))
		if err != nil {
			if l.flushedLSN.Load() >= lsn {
				return nil // a racing flush covered us before the failure
			}
			l.poison(err)
		}
		return err
	}
	ch := make(chan error, 1)
	l.gcWaiters = append(l.gcWaiters, gcWaiter{lsn: lsn, ch: ch, at: time.Now()})
	wake := l.gcWake
	l.gcMu.Unlock()
	select {
	case wake <- struct{}{}:
	default: // flusher already signalled
	}
	return <-ch
}

// flusherLoop is the group-commit pipeline: wake, serve everyone queued
// with one round, repeat. On stop it runs one final round so no waiter
// is left blocked. A stale wake — the round that served its sender also
// absorbed later committers — finds no waiters and its round returns
// without touching the backend.
func (l *Log) flusherLoop(wake, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		select {
		case <-stop:
			l.round()
			return
		case <-wake:
			// Committers woken by the previous round are often already
			// runnable with their next commit; one yield lets them enqueue
			// and join this group instead of waiting out a whole extra sync.
			runtime.Gosched()
			l.linger(wake, stop)
			l.round()
		}
	}
}

// linger holds a round open before it syncs, for a writer already in
// flight. It waits only when all three hold:
//
//   - a peer is coming: l.peers counts more writers than the round
//     holds, beyond those presumed idle. When a wait expires with
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
//     later. A log whose syncs cost nothing has used that up before the
//     flusher gets here, so it never parks.
//
// The wait ends at the first committer to arrive, at the bound, or on
// stop. Every figure it uses is measured on the log itself, so there is
// nothing to tune.
func (l *Log) linger(wake, stop <-chan struct{}) {
	if !l.contended {
		return
	}
	l.gcMu.Lock()
	queued := len(l.gcWaiters)
	var from time.Time
	if queued > 0 {
		from = l.gcWaiters[0].at
	}
	l.gcMu.Unlock()
	if queued == 0 {
		return // a stale wake: no round to hold open
	}
	n := max(l.peers.InFlight()-int64(queued), 0) // writers outside the round
	l.idle = min(l.idle, n)                       // writers presumed idle that have left
	if n <= l.idle {
		return
	}
	if from.Before(l.syncEnd) {
		from = l.syncEnd
	}
	left := time.Duration(min(l.syncNs[0].Load(), l.syncNs[1].Load())) - time.Since(from)
	if left <= 0 {
		return
	}
	l.stats.LingerRounds.Add(1)
	start := time.Now()
	timer := time.NewTimer(left)
	defer timer.Stop()
wait:
	for {
		select {
		case <-wake:
			l.gcMu.Lock()
			arrived := len(l.gcWaiters) > queued
			l.gcMu.Unlock()
			if arrived {
				l.stats.LingerGathered.Add(1)
				break wait
			}
		case <-timer.C:
			l.gcMu.Lock()
			l.idle = max(l.peers.InFlight()-int64(len(l.gcWaiters)), 0)
			l.gcMu.Unlock()
			break wait
		case <-stop:
			break wait
		}
	}
	l.stats.LingerNs.Add(int64(time.Since(start)))
}

// round serves the queued waiters: one flush for the whole group, or —
// once AbortGroupCommit has begun, whether it is the final round, one
// whose wake raced the stop, or one that was lingering — a failure that
// never touches the backend.
func (l *Log) round() {
	if l.gcHalted.Load() {
		l.failRound(ErrHalted)
		return
	}
	l.flushRound()
}

// flushRound takes the current waiter group, flushes through its highest
// LSN, and delivers the outcome to every member. It also records whether
// the log is contended, for the next round's linger.
func (l *Log) flushRound() {
	l.gcMu.Lock()
	waiters := l.gcWaiters
	l.gcWaiters = nil
	l.gcMu.Unlock()
	if len(waiters) == 0 {
		return
	}
	target := waiters[0].lsn
	for _, w := range waiters[1:] {
		if w.lsn > target {
			target = w.lsn
		}
	}
	err := l.Flush(target)
	l.syncEnd = time.Now()
	l.gcMu.Lock()
	l.contended = len(waiters) > 1 || len(l.gcWaiters) > 0
	l.gcMu.Unlock()
	if err == nil {
		l.stats.GroupFlushes.Add(1)
		l.stats.GroupedCommits.Add(int64(len(waiters)))
		l.groupSize.Observe(int64(len(waiters)))
	} else {
		// One bad flush fans out to every committer in the round; they
		// all roll back in memory, so none of their appended frames may
		// ever become durable.
		l.poison(err)
	}
	now := time.Now()
	for _, w := range waiters {
		werr := err
		if werr != nil && l.flushedLSN.Load() >= w.lsn {
			// A racing flush made this waiter durable before the failure:
			// its commit stands.
			werr = nil
		}
		l.commitWait.Observe(now.Sub(w.at))
		w.ch <- werr
	}
}

// failRound delivers err to every queued waiter without flushing.
// Waiters whose LSN is already durable still succeed.
func (l *Log) failRound(err error) {
	l.gcMu.Lock()
	waiters := l.gcWaiters
	l.gcWaiters = nil
	l.gcMu.Unlock()
	now := time.Now()
	for _, w := range waiters {
		werr := err
		if l.flushedLSN.Load() >= w.lsn {
			werr = nil
		}
		l.commitWait.Observe(now.Sub(w.at))
		w.ch <- werr
	}
}
