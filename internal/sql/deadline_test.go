package sql

import (
	"errors"
	"testing"
	"time"
)

// tickClock returns a time source that advances step on every reading —
// statement deadlines expire deterministically, with no real sleeping.
// Sessions are single-goroutine, so no synchronization is needed.
func tickClock(base time.Time, step time.Duration) func() time.Time {
	t := base
	return func() time.Time {
		t = t.Add(step)
		return t
	}
}

func TestDeadlineExpiresMidStatement(t *testing.T) {
	eng := openEngine(t, 1)
	s := NewSession(eng)
	defer s.Close()
	mustExec(t, s,
		`CREATE TABLE t (a INT, PRIMARY KEY (a))`,
		`INSERT INTO t VALUES (1), (2), (3)`,
	)

	// Clock reads: one at statement entry (inside the deadline), the
	// next at the scan's first check (past it) — the statement dies
	// mid-flight, not at admission.
	base := time.Unix(1000, 0)
	s.SetClock(tickClock(base, time.Millisecond))
	s.SetStatementDeadline(base.Add(2 * time.Millisecond))
	if _, err := s.Exec(`SELECT a FROM t`); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("scan past deadline: %v, want ErrDeadlineExceeded", err)
	}

	// Point operations check the same deadline on entry.
	s.SetClock(tickClock(base, time.Millisecond))
	s.SetStatementDeadline(base.Add(2 * time.Millisecond))
	if _, err := s.Exec(`SELECT a FROM t WHERE a = 1`); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("point read past deadline: %v, want ErrDeadlineExceeded", err)
	}

	// Disarming restores normal service; autocommit left nothing broken.
	s.SetStatementDeadline(time.Time{})
	if res := mustExec(t, s, `SELECT a FROM t`); len(res.Rows) != 3 {
		t.Fatalf("rows after disarm = %d, want 3", len(res.Rows))
	}
}

func TestDeadlineAbortsExplicitTxn(t *testing.T) {
	eng := openEngine(t, 1)
	s := NewSession(eng)
	defer s.Close()
	mustExec(t, s,
		`CREATE TABLE t (a INT, PRIMARY KEY (a))`,
		`BEGIN`, `INSERT INTO t VALUES (99)`,
	)

	// An expired statement inside a BEGIN block aborts the whole block,
	// exactly like any other statement failure.
	base := time.Unix(2000, 0)
	s.SetClock(tickClock(base, time.Millisecond))
	s.SetStatementDeadline(base) // already past at the first reading
	if _, err := s.Exec(`SELECT a FROM t`); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("statement at expired deadline: %v", err)
	}
	s.SetStatementDeadline(time.Time{})
	if _, err := s.Exec(`SELECT a FROM t`); !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("statement after deadline abort: %v, want ErrTxnAborted", err)
	}
	mustExec(t, s, `ROLLBACK`)
	if res := mustExec(t, s, `SELECT a FROM t WHERE a = 99`); len(res.Rows) != 0 {
		t.Fatalf("deadline-aborted insert visible: %+v", res.Rows)
	}
}
