package disk

import (
	"fmt"
	"sync/atomic"

	"repro/internal/fault"
)

// FaultyDevice wraps a Device and fails operations once a trigger count
// is reached — failure injection for recovery and error-path tests.
// Two injection modes compose:
//
//   - FailReadsAfter/FailWritesAfter: hard mode — once that many
//     operations have succeeded, every subsequent one fails with a
//     permanent ErrInjected (the device died).
//   - transient budgets (AddTransientReadFaults/AddTransientWriteFaults):
//     the next N operations fail with a transient-marked error, then the
//     device heals — a glitching device the retry layer should absorb.
type FaultyDevice struct {
	Inner Device
	// FailReadsAfter / FailWritesAfter: once that many successful
	// operations have happened, subsequent ones fail (0 disables).
	FailReadsAfter  int64
	FailWritesAfter int64

	reads  atomic.Int64
	writes atomic.Int64

	transientReads  atomic.Int64
	transientWrites atomic.Int64
	injected        atomic.Int64
}

// ErrInjected is returned by injected failures.
var ErrInjected = fmt.Errorf("disk: injected fault")

// ErrInjectedTransient is the transient-classified injected failure.
var ErrInjectedTransient = fault.MarkTransient(fmt.Errorf("disk: injected transient fault"))

// AddTransientReadFaults arms the next n reads to fail transiently.
func (d *FaultyDevice) AddTransientReadFaults(n int64) { d.transientReads.Add(n) }

// AddTransientWriteFaults arms the next n writes to fail transiently.
func (d *FaultyDevice) AddTransientWriteFaults(n int64) { d.transientWrites.Add(n) }

// Injected returns the total number of faults injected so far.
func (d *FaultyDevice) Injected() int64 { return d.injected.Load() }

// ReadPage implements Device.
func (d *FaultyDevice) ReadPage(id uint32, buf []byte) error {
	if d.FailReadsAfter > 0 && d.reads.Add(1) > d.FailReadsAfter {
		d.injected.Add(1)
		return ErrInjected
	}
	if fault.TakeBudget(&d.transientReads) {
		d.injected.Add(1)
		return ErrInjectedTransient
	}
	return d.Inner.ReadPage(id, buf)
}

// WritePage implements Device.
func (d *FaultyDevice) WritePage(id uint32, buf []byte) error {
	if d.FailWritesAfter > 0 && d.writes.Add(1) > d.FailWritesAfter {
		d.injected.Add(1)
		return ErrInjected
	}
	if fault.TakeBudget(&d.transientWrites) {
		d.injected.Add(1)
		return ErrInjectedTransient
	}
	return d.Inner.WritePage(id, buf)
}

// AllocatePage implements Device.
func (d *FaultyDevice) AllocatePage() (uint32, error) { return d.Inner.AllocatePage() }

// NumPages implements Device.
func (d *FaultyDevice) NumPages() uint32 { return d.Inner.NumPages() }

// Sync implements Device.
func (d *FaultyDevice) Sync() error { return d.Inner.Sync() }

// Close implements Device.
func (d *FaultyDevice) Close() error { return d.Inner.Close() }
