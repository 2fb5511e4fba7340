package wal

import (
	"errors"
	"runtime"
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
// The flusher never lingers: it flushes as soon as it wakes, and batching
// arises from committers that arrive while a sync is in flight, which
// keeps single-committer latency at the direct-flush baseline.
//
// With no flusher running — before the engine finishes recovery, after
// StopGroupCommit, and on the decision journal — WaitDurable degrades to
// a direct synchronous Flush.

// gcWaiter is one committer blocked in WaitDurable.
type gcWaiter struct {
	lsn uint64
	ch  chan error
	at  time.Time
}

// StartGroupCommit launches the flusher goroutine. It is a no-op if the
// pipeline is already running.
func (l *Log) StartGroupCommit() {
	l.gcMu.Lock()
	defer l.gcMu.Unlock()
	if l.gcRunning {
		return
	}
	l.gcRunning = true
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
			l.round()
		}
	}
}

// round serves the queued waiters: one flush for the whole group, or —
// once AbortGroupCommit has begun, whether it is the final round or one
// whose wake raced the stop — a failure that never touches the backend.
func (l *Log) round() {
	if l.gcHalted.Load() {
		l.failRound(ErrHalted)
		return
	}
	l.flushRound()
}

// flushRound takes the current waiter group, flushes through its highest
// LSN, and delivers the outcome to every member.
func (l *Log) flushRound() {
	// Committers woken by the previous round are often already runnable
	// with their next commit; one yield lets them enqueue and join this
	// group instead of waiting out a whole extra sync.
	runtime.Gosched()
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
