package wal

import (
	"errors"
	"sync/atomic"

	"repro/internal/fault"
)

// ErrInjected is returned by FaultyBackend's injected failures.
var ErrInjected = errors.New("wal: injected backend fault")

// ErrInjectedTransient is the transient-classified injected failure.
var ErrInjectedTransient = fault.MarkTransient(errors.New("wal: injected transient backend fault"))

// FaultyBackend wraps a Backend and kills it after a trigger count of
// appends or syncs — failure injection for group-commit error paths and
// crash-recovery tests. When an append is killed, TornBytes of the batch
// are still written to the inner backend first, modelling a power cut
// mid-write that leaves a torn final frame on the medium.
//
// On top of the hard (device-died) mode, AddTransientAppendFaults and
// AddTransientSyncFaults arm a budget of transient glitches: the next N
// appends/syncs fail with a transient-marked error BEFORE touching the
// inner backend (no torn bytes, no dead flag), then the device heals.
// This is the mode the WAL flush retry layer is tested against.
type FaultyBackend struct {
	Inner Backend

	// FailAppendsAfter: once that many appends have succeeded, every
	// subsequent append fails (0 disables).
	FailAppendsAfter int64
	// TornBytes is the prefix of the first failed append that still
	// reaches the inner backend (a torn write).
	TornBytes int
	// FailSyncsAfter: once that many syncs have succeeded, every
	// subsequent sync fails (0 disables).
	FailSyncsAfter int64

	appends atomic.Int64
	syncs   atomic.Int64
	torn    atomic.Bool
	dead    atomic.Bool

	transientAppends atomic.Int64
	transientSyncs   atomic.Int64
	injected         atomic.Int64
	killed           atomic.Bool
}

// Kill marks the device dead immediately: every subsequent append and
// sync fails hard (permanent), independent of the After counters. Lets
// tests trigger the device death at an exact point in a workload instead
// of budgeting operation counts.
func (b *FaultyBackend) Kill() { b.killed.Store(true); b.dead.Store(true) }

// AddTransientAppendFaults arms the next n appends to fail transiently.
func (b *FaultyBackend) AddTransientAppendFaults(n int64) { b.transientAppends.Add(n) }

// AddTransientSyncFaults arms the next n syncs to fail transiently.
func (b *FaultyBackend) AddTransientSyncFaults(n int64) { b.transientSyncs.Add(n) }

// Injected returns the total number of faults injected so far.
func (b *FaultyBackend) Injected() int64 { return b.injected.Load() }

// Append implements Backend.
func (b *FaultyBackend) Append(p []byte) (int64, error) {
	if b.killed.Load() {
		b.injected.Add(1)
		return 0, ErrInjected
	}
	if b.FailAppendsAfter > 0 && b.appends.Add(1) > b.FailAppendsAfter {
		if b.TornBytes > 0 && b.torn.CompareAndSwap(false, true) {
			n := b.TornBytes
			if n > len(p) {
				n = len(p)
			}
			_, _ = b.Inner.Append(p[:n])
		}
		b.dead.Store(true)
		b.injected.Add(1)
		return 0, ErrInjected
	}
	if fault.TakeBudget(&b.transientAppends) {
		b.injected.Add(1)
		return 0, ErrInjectedTransient
	}
	return b.Inner.Append(p)
}

// Truncate implements Backend. Once a failure has been injected the
// backend is a dead device and refuses truncation too: a poisoned log
// cannot scrub its torn bytes, so recovery's tail repair must discard
// them at the next open — exactly the hard case crash tests want.
func (b *FaultyBackend) Truncate(n int64) error {
	if b.dead.Load() {
		return ErrInjected
	}
	return b.Inner.Truncate(n)
}

// ReadAt implements Backend.
func (b *FaultyBackend) ReadAt(p []byte, off int64) (int, error) { return b.Inner.ReadAt(p, off) }

// Size implements Backend.
func (b *FaultyBackend) Size() (int64, error) { return b.Inner.Size() }

// Sync implements Backend.
func (b *FaultyBackend) Sync() error {
	if b.killed.Load() {
		b.injected.Add(1)
		return ErrInjected
	}
	if b.FailSyncsAfter > 0 && b.syncs.Add(1) > b.FailSyncsAfter {
		b.dead.Store(true)
		b.injected.Add(1)
		return ErrInjected
	}
	if fault.TakeBudget(&b.transientSyncs) {
		b.injected.Add(1)
		return ErrInjectedTransient
	}
	return b.Inner.Sync()
}

// Close implements Backend.
func (b *FaultyBackend) Close() error { return b.Inner.Close() }
