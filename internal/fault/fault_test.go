package fault

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	base := errors.New("io broke")
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, Permanent},
		{"plain", base, Permanent},
		{"marked", MarkTransient(base), Transient},
		{"wrapped marked", fmt.Errorf("flush: %w", MarkTransient(base)), Transient},
		{"marked wrapped", MarkTransient(fmt.Errorf("flush: %w", base)), Transient},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
	if MarkTransient(nil) != nil {
		t.Error("MarkTransient(nil) should be nil")
	}
	if !errors.Is(MarkTransient(base), base) {
		t.Error("MarkTransient must keep the cause reachable via errors.Is")
	}
}

// An exhaustion error wraps a transient cause, but must itself classify
// permanent: a retrier stacked above another must not multiply attempts
// against an operation the lower layer already gave up on.
func TestExhaustedShadowsTransient(t *testing.T) {
	r := NewRetrier(Policy{MaxAttempts: 2})
	r.Sleep = func(time.Duration) {}
	cause := MarkTransient(errors.New("down"))
	err := r.Do(func() error { return cause })
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v", err)
	}
	if IsTransient(err) {
		t.Fatal("exhausted error must classify permanent")
	}
	outer := NewRetrier(Policy{MaxAttempts: 5})
	outer.Sleep = func(time.Duration) { t.Fatal("outer retrier must not back off an exhausted error") }
	calls := 0
	_ = outer.Do(func() error { calls++; return err })
	if calls != 1 {
		t.Fatalf("outer retrier ran %d attempts, want 1", calls)
	}
}

func TestRetrierRecoversTransient(t *testing.T) {
	r := NewRetrier(Policy{MaxAttempts: 4})
	var slept []time.Duration
	r.Sleep = func(d time.Duration) { slept = append(slept, d) }
	recovered := 0
	r.OnRecovered = func() { recovered++ }

	fails := 2
	err := r.Do(func() error {
		if fails > 0 {
			fails--
			return MarkTransient(errors.New("blip"))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	if recovered != 1 {
		t.Fatalf("OnRecovered fired %d times, want 1", recovered)
	}
	s := r.Stats()
	if s.Attempts != 1 || s.Retries != 2 || s.Exhausted != 0 || s.Recovered != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRetrierPermanentNoRetry(t *testing.T) {
	r := NewRetrier(Policy{MaxAttempts: 5})
	r.Sleep = func(time.Duration) { t.Fatal("should not sleep for a permanent error") }
	perm := errors.New("corrupt")
	calls := 0
	err := r.Do(func() error { calls++; return perm })
	if !errors.Is(err, perm) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want the permanent error after exactly 1 call", err, calls)
	}
	if errors.Is(err, ErrExhausted) {
		t.Fatal("a permanent failure must not be reported as exhaustion")
	}
}

func TestRetrierExhaustion(t *testing.T) {
	r := NewRetrier(Policy{MaxAttempts: 3})
	r.Sleep = func(time.Duration) {}
	var hook error
	r.OnExhausted = func(err error) { hook = err }
	cause := errors.New("still down")
	calls := 0
	err := r.Do(func() error { calls++; return MarkTransient(cause) })
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if !errors.Is(err, ErrExhausted) || !errors.Is(err, cause) {
		t.Fatalf("err = %v, want both ErrExhausted and the cause in the chain", err)
	}
	if hook == nil || !errors.Is(hook, ErrExhausted) {
		t.Fatalf("OnExhausted got %v", hook)
	}
	if s := r.Stats(); s.Exhausted != 1 || s.Retries != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRetrierBackoffBounds(t *testing.T) {
	p := Policy{
		MaxAttempts: 6,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.5,
	}
	r := NewRetrier(p)
	for n := 1; n <= 5; n++ {
		// Un-jittered ceiling: base * mult^(n-1), capped at MaxDelay.
		ceil := time.Millisecond << (n - 1)
		if ceil > p.MaxDelay {
			ceil = p.MaxDelay
		}
		for i := 0; i < 50; i++ {
			d := r.delay(n)
			if d > ceil || d < ceil/2 {
				t.Fatalf("delay(%d) = %v outside [%v, %v]", n, d, ceil/2, ceil)
			}
		}
	}
}

func TestNilRetrier(t *testing.T) {
	var r *Retrier
	calls := 0
	werr := MarkTransient(errors.New("x"))
	if err := r.Do(func() error { calls++; return werr }); err != werr || calls != 1 {
		t.Fatalf("nil retrier must run op exactly once and return its error; err=%v calls=%d", err, calls)
	}
	if s := r.Stats(); s != (Stats{}) {
		t.Fatalf("nil retrier stats = %+v", s)
	}
}

// Concurrent takers consume a budget exactly: n succeed, none goes
// below zero.
func TestTakeBudget(t *testing.T) {
	var budget atomic.Int64
	budget.Store(100)
	var took atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if TakeBudget(&budget) {
					took.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if took.Load() != 100 || budget.Load() != 0 {
		t.Fatalf("took %d, budget left %d; want 100 and 0", took.Load(), budget.Load())
	}
}
