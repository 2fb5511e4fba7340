package core

import "errors"

// Engine error values.
var (
	// ErrDuplicateKey reports a unique-index violation.
	ErrDuplicateKey = errors.New("core: duplicate key")
	// ErrPKChange reports an update attempting to modify primary-key
	// columns (unsupported; delete + insert instead).
	ErrPKChange = errors.New("core: primary key columns cannot be updated")
	// ErrRetry reports that a row moved between stores too many times
	// during one operation; the caller should retry the statement.
	ErrRetry = errors.New("core: row relocated concurrently, retry")
	// ErrTxnDone reports use of a finished transaction.
	ErrTxnDone = errors.New("core: transaction already finished")
	// ErrRowTooLarge reports a row whose encoding exceeds the single-page
	// limit. The bound applies to both stores: an IMRS row larger than a
	// page could never be packed.
	ErrRowTooLarge = errors.New("core: row exceeds the single-page size limit")
	// ErrReadOnly reports a write rejected because the engine is in the
	// ReadOnly health state (a WAL is poisoned and no write could ever
	// become durable). Matched by errors.Is against the *ReadOnlyError
	// the write paths actually return.
	ErrReadOnly = errors.New("core: engine is read-only")
	// ErrEngineClosed reports use of an engine after Halt/Close.
	ErrEngineClosed = errors.New("core: engine closed")
	// ErrDeltaWithoutBase fails a recovery whose sysimrslogs holds an
	// update delta for a row that no earlier replayed record holds: the
	// log lost the image the delta applies to.
	ErrDeltaWithoutBase = errors.New("core: sysimrslogs delta has no base image")
)

// ReadOnlyError is the typed write rejection carrying the root cause
// that forced the engine read-only (typically wal.ErrPoisoned wrapping
// the failed flush). errors.Is(err, ErrReadOnly) matches it; the cause
// chain stays reachable through Unwrap.
type ReadOnlyError struct {
	Cause error
	// Recoverable distinguishes a shard parked ReadOnly by unresolved
	// in-doubt transactions (the state clears in place once the
	// coordinator's decision is learned — callers may retry with
	// backoff) from the sticky poisoned-WAL verdict, which only a
	// restart clears.
	Recoverable bool
}

// Error implements error.
func (e *ReadOnlyError) Error() string {
	if e.Cause == nil {
		return ErrReadOnly.Error()
	}
	return ErrReadOnly.Error() + ": " + e.Cause.Error()
}

// Unwrap exposes the root cause.
func (e *ReadOnlyError) Unwrap() error { return e.Cause }

// Is matches the ErrReadOnly sentinel.
func (e *ReadOnlyError) Is(target error) bool { return target == ErrReadOnly }
