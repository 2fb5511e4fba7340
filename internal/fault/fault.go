// Package fault is the shared failure-handling substrate of the engine:
// it classifies backend errors as transient (worth retrying) or
// permanent (surface immediately), and provides a bounded
// exponential-backoff retrier with jitter that the storage device, both
// WAL flush paths, and the background checkpoint wrap around their
// fallible operations. The health FSM in internal/core consumes the
// retrier's exhaustion/recovery hooks to drive Healthy → Degraded
// transitions (DESIGN.md §9).
package fault

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// Class is the retry classification of an error.
type Class uint8

// Classes. Unknown errors default to Permanent: retrying an error we do
// not understand risks hammering a sick device and, worse, masking a
// correctness problem as latency.
const (
	Permanent Class = iota
	Transient
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == Transient {
		return "transient"
	}
	return "permanent"
}

// transienter is the marker interface: any error (anywhere in a wrapped
// chain) reporting FaultTransient() true classifies as Transient.
// Backends tag their retryable failures by implementing it or by
// wrapping with MarkTransient.
type transienter interface {
	FaultTransient() bool
}

// transientError is the wrapper produced by MarkTransient.
type transientError struct{ err error }

func (e *transientError) Error() string        { return e.err.Error() }
func (e *transientError) Unwrap() error        { return e.err }
func (e *transientError) FaultTransient() bool { return true }

// MarkTransient tags err as transient for Classify. A nil err stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// Classify returns the verdict of the OUTERMOST transient marker in
// err's wrap chain, Permanent when there is none. Outermost-wins is
// what lets an exhaustion error shadow the transient cause it wraps:
// a layered retrier must not re-retry an operation a lower layer
// already gave up on (retry amplification).
func Classify(err error) Class {
	var t transienter
	if errors.As(err, &t) && t.FaultTransient() {
		return Transient
	}
	return Permanent
}

// IsTransient reports whether err classifies as Transient.
func IsTransient(err error) bool { return Classify(err) == Transient }

// ErrExhausted marks an error returned after every retry attempt failed.
// The last underlying failure stays reachable through errors.Is/As.
var ErrExhausted = errors.New("fault: retries exhausted")

// exhaustedError wraps the final failure of an exhausted retry loop.
type exhaustedError struct {
	attempts int
	err      error
}

func (e *exhaustedError) Error() string {
	return fmt.Sprintf("fault: %d attempts exhausted: %v", e.attempts, e.err)
}
func (e *exhaustedError) Unwrap() error { return e.err }
func (e *exhaustedError) Is(target error) bool {
	return target == ErrExhausted
}

// FaultTransient shadows the wrapped transient cause: once a retrier
// has exhausted its budget the failure is permanent to every layer
// above it.
func (e *exhaustedError) FaultTransient() bool { return false }

// Policy bounds a retry loop. Zero-value fields take the defaults below.
type Policy struct {
	// MaxAttempts is the total number of tries, the first included.
	MaxAttempts int
	// BaseDelay is the sleep before the first retry; each subsequent
	// retry multiplies it by Multiplier up to MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the per-retry sleep.
	MaxDelay time.Duration
	// Multiplier is the exponential growth factor.
	Multiplier float64
	// Jitter is the fraction of each delay randomized away (0..1): the
	// actual sleep is uniform in [d*(1-Jitter), d]. De-synchronizes
	// retriers hitting a shared sick device.
	Jitter float64
}

// Default policy values.
const (
	DefaultMaxAttempts = 5
	DefaultBaseDelay   = 200 * time.Microsecond
	DefaultMaxDelay    = 20 * time.Millisecond
	DefaultMultiplier  = 2.0
	DefaultJitter      = 0.2
)

// withDefaults fills zero fields.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultMaxDelay
	}
	if p.Multiplier < 1 {
		p.Multiplier = DefaultMultiplier
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		p.Jitter = DefaultJitter
	}
	return p
}

// Stats are a retrier's cumulative counters.
type Stats struct {
	// Attempts counts operations passed through Do.
	Attempts int64
	// Retries counts individual re-tries after a transient failure.
	Retries int64
	// Exhausted counts operations that failed even after MaxAttempts.
	Exhausted int64
	// Recovered counts operations that succeeded after at least one retry.
	Recovered int64
}

// Retrier runs operations under a Policy. A nil *Retrier is valid and
// runs operations directly with no retry (the DisableRetry path).
// Retried operations must be idempotent across FAILED attempts: every
// backend in this repo writes at an explicit offset (or is atomic), so
// re-running after a failed write never duplicates bytes.
type Retrier struct {
	policy Policy

	attempts  atomic.Int64
	retries   atomic.Int64
	exhausted atomic.Int64
	recovered atomic.Int64

	// Sleep is the delay function (tests inject a recorder; the chaos
	// harness injects a deterministic no-op to keep cycles fast).
	Sleep func(time.Duration)

	// OnExhausted fires when an operation fails after the final attempt
	// (with the exhaustion error); OnRecovered fires when an operation
	// succeeds after at least one retry. The engine's health FSM listens
	// on both. Either may be nil. Hooks must not call back into the
	// retrier.
	OnExhausted func(error)
	OnRecovered func()
}

// NewRetrier builds a retrier over p (zero fields defaulted).
func NewRetrier(p Policy) *Retrier {
	return &Retrier{policy: p.withDefaults(), Sleep: time.Sleep}
}

// Policy returns the effective (defaulted) policy.
func (r *Retrier) Policy() Policy {
	if r == nil {
		return Policy{MaxAttempts: 1}
	}
	return r.policy
}

// Stats snapshots the counters. Safe on a nil retrier.
func (r *Retrier) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	return Stats{
		Attempts:  r.attempts.Load(),
		Retries:   r.retries.Load(),
		Exhausted: r.exhausted.Load(),
		Recovered: r.recovered.Load(),
	}
}

// delay computes the jittered backoff before retry number n (1-based).
func (r *Retrier) delay(n int) time.Duration {
	d := float64(r.policy.BaseDelay)
	for i := 1; i < n; i++ {
		d *= r.policy.Multiplier
		if d >= float64(r.policy.MaxDelay) {
			d = float64(r.policy.MaxDelay)
			break
		}
	}
	if r.policy.Jitter > 0 {
		d -= d * r.policy.Jitter * rand.Float64()
	}
	return time.Duration(d)
}

// Do runs op, retrying transient failures under the policy. Permanent
// failures return immediately. When every attempt fails, the returned
// error wraps both ErrExhausted and the last failure. On a nil retrier,
// Do is exactly op().
func (r *Retrier) Do(op func() error) error {
	if r == nil {
		return op()
	}
	r.attempts.Add(1)
	var err error
	for attempt := 1; ; attempt++ {
		err = op()
		if err == nil {
			if attempt > 1 {
				r.recovered.Add(1)
				if r.OnRecovered != nil {
					r.OnRecovered()
				}
			}
			return nil
		}
		if !IsTransient(err) {
			return err
		}
		if attempt >= r.policy.MaxAttempts {
			break
		}
		r.retries.Add(1)
		if r.Sleep != nil {
			r.Sleep(r.delay(attempt))
		}
	}
	r.exhausted.Add(1)
	ex := &exhaustedError{attempts: r.policy.MaxAttempts, err: err}
	if r.OnExhausted != nil {
		r.OnExhausted(ex)
	}
	return ex
}

// TakeBudget consumes one unit of an injected-fault budget, never going
// below zero under concurrent callers: the fault-injecting device and
// log wrappers fail one operation per unit taken.
func TakeBudget(budget *atomic.Int64) bool {
	for {
		n := budget.Load()
		if n <= 0 {
			return false
		}
		if budget.CompareAndSwap(n, n-1) {
			return true
		}
	}
}
