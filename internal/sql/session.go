package sql

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/btrim"
)

// Typed session errors. The wire protocol preserves ErrTxnAborted
// across the network so clients can distinguish "statement rejected
// because the transaction is aborted" from ordinary failures.
var (
	// ErrTxnAborted reports a statement issued inside an explicit
	// transaction that has already failed: the transaction was rolled
	// back at the point of failure and every later statement is rejected
	// until ROLLBACK (or COMMIT, which also fails with this error) ends
	// the transaction block.
	ErrTxnAborted = errors.New("sql: current transaction is aborted, commands ignored until ROLLBACK")
	// ErrTxnOpen reports BEGIN inside an open transaction.
	ErrTxnOpen = errors.New("sql: a transaction is already in progress")
	// ErrNoTxn reports COMMIT/ROLLBACK with no open transaction.
	ErrNoTxn = errors.New("sql: no transaction is in progress")
	// ErrDDLInTxn reports CREATE TABLE or DROP TABLE inside an explicit
	// transaction (DDL checkpoints immediately and cannot roll back with
	// it).
	ErrDDLInTxn = errors.New("sql: DDL cannot run inside a transaction")
	// ErrDeadlineExceeded reports a statement cancelled by the session's
	// statement deadline. Inside an explicit transaction it aborts the
	// transaction like any other statement failure; the statement's
	// partial effects are rolled back either way. Retryable: the same
	// statement may succeed under a fresh deadline.
	ErrDeadlineExceeded = errors.New("sql: statement deadline exceeded")
	// ErrNoPrepared reports EXECUTE/DEALLOCATE of an unknown prepared
	// statement name.
	ErrNoPrepared = errors.New("sql: no such prepared statement")
)

// Result is the outcome of one statement.
type Result struct {
	Cols     []string    // non-nil for row-returning statements
	Rows     []btrim.Row // owned by the caller
	Affected int64       // rows written by INSERT/UPDATE/DELETE
	Msg      string      // human tag: "BEGIN", "CREATE TABLE", ...
	// Warning carries a non-fatal condition the statement survived —
	// today, the partial-result notice when a SELECT scanned around a
	// down shard. Empty otherwise.
	Warning string
}

// SessionStats counts the session's front-end work: plan-cache traffic
// and prepared-statement executions. The server aggregates these per
// connection into its rollup.
type SessionStats struct {
	CacheHits          uint64 // statements served from the plan cache
	CacheMisses        uint64 // statements compiled fresh
	CacheEvictions     uint64 // LRU entries displaced
	CacheInvalidations uint64 // plans recompiled after DDL moved the catalog version
	CacheSize          int    // current entries
	PreparedExecs      uint64 // EXECUTE / wire-bind runs of prepared statements
}

// prepStmt is one named prepared statement: the parsed AST survives DDL
// (recompile), the compiled form is the version-stamped fast path.
type prepStmt struct {
	text      string
	stmt      Statement
	numParams int
	c         *compiled
}

// Session executes statements against one engine with per-session
// transaction state:
//
//	autocommit --BEGIN--> open --COMMIT/ROLLBACK--> autocommit
//	                      open --statement error--> aborted
//	aborted: statements fail with ErrTxnAborted; ROLLBACK clears it,
//	         COMMIT clears it but reports ErrTxnAborted (nothing durable).
//
// In autocommit each statement runs in its own transaction, committed
// on success and rolled back wholesale on failure, so a half-applied
// statement can never leak.
//
// Every DML statement executes through a compiled plan. Exec routes
// through a transparent normalized-text plan cache (literals become
// bind parameters), so a repeated statement shape skips the lexer,
// parser and planner entirely; PREPARE/EXECUTE expose the same
// machinery explicitly. Compiled plans are stamped with the catalog DDL
// version and recompiled when it moves. A Session is not safe for
// concurrent use; the server gives each connection its own.
type Session struct {
	eng      Engine
	tx       Txn
	aborted  bool
	deadline time.Time        // per-statement deadline; zero = none
	now      func() time.Time // time source (overridable for tests)

	cache    *planCache
	prepared map[string]*prepStmt
	stats    SessionStats
	argBuf   []btrim.Value // scratch for literal→value conversion
}

// NewSession builds a session over eng (Wrap, or a decorator over it).
func NewSession(eng Engine) *Session {
	return &Session{eng: eng, now: time.Now, cache: newPlanCache(planCacheSize)}
}

// Stats returns a snapshot of the session's front-end counters.
func (s *Session) Stats() SessionStats {
	st := s.stats
	if s.cache != nil {
		st.CacheSize = s.cache.len()
	}
	return st
}

// DisablePlanCache turns the transparent plan cache off for this
// session: every statement parses and plans from scratch. Benchmark
// ablations use it to price the cache; there is no way to turn it back
// on.
func (s *Session) DisablePlanCache() { s.cache = nil }

// SetStatementDeadline arms (or, with the zero time, disarms) the
// statement deadline: DML and queries started via Do after the deadline
// — or still scanning when it passes — fail with ErrDeadlineExceeded.
// The server re-arms it per statement from its configured timeout.
func (s *Session) SetStatementDeadline(t time.Time) { s.deadline = t }

// SetClock overrides the session's time source (tests).
func (s *Session) SetClock(now func() time.Time) { s.now = now }

// Reset force-ends any open transaction and clears the aborted state
// and deadline, returning the session to autocommit. The server uses it
// to restore a usable session after a recovered statement panic leaves
// the state machine unknown. Prepared statements and cached plans
// survive: they carry no transaction state.
func (s *Session) Reset() {
	if s.tx != nil {
		s.tx.Abort()
		s.tx = nil
	}
	s.aborted = false
	s.deadline = time.Time{}
}

// InTxn reports whether an explicit transaction block is open
// (including the aborted state).
func (s *Session) InTxn() bool { return s.tx != nil || s.aborted }

// Aborted reports whether the open transaction block is aborted.
func (s *Session) Aborted() bool { return s.aborted }

// Close rolls back any open transaction. Safe to call more than once.
func (s *Session) Close() {
	if s.tx != nil {
		s.tx.Abort()
		s.tx = nil
	}
	s.aborted = false
}

// fail transitions the session after a failed statement: an open
// explicit transaction is rolled back immediately and the session
// parks in the aborted state.
func (s *Session) fail(err error) error {
	if s.tx != nil {
		s.tx.Abort()
		s.tx = nil
		s.aborted = true
	}
	return err
}

// Exec parses and executes one statement. DML takes the plan-cache
// fast path: the statement text is normalized (literals → parameters),
// and a cache hit skips parse and plan entirely.
func (s *Session) Exec(text string) (*Result, error) {
	if stmt := txnCtrlStmt(text); stmt != nil {
		return s.ExecParsed(stmt)
	}
	toks, err := lex(text)
	if err != nil {
		return nil, s.fail(err)
	}
	if key, norm, lits, ok := normalize(toks); ok && s.cache != nil {
		c, err := s.cachedCompile(key, norm)
		if err != nil {
			return nil, s.fail(err)
		}
		args := s.litArgs(lits)
		return s.execCompiled(c, args)
	}
	stmt, nparams, err := parseToks(toks)
	if err != nil {
		return nil, s.fail(err)
	}
	if nparams > 0 {
		if _, isPrep := stmt.(*Prepare); !isPrep {
			return nil, s.fail(fmt.Errorf("sql: statement has parameters; use PREPARE to bind them"))
		}
	}
	return s.ExecParsed(stmt)
}

var (
	beginStmt    = &Begin{}
	commitStmt   = &Commit{}
	rollbackStmt = &Rollback{}
)

// txnCtrlStmt matches the single-word transaction-control statements
// (optional trailing semicolon) without running the lexer: they
// bracket every transaction, so a lex+normalize pass here is pure tax
// on the hot path.
func txnCtrlStmt(text string) Statement {
	t := strings.TrimSpace(text)
	if n := len(t); n > 0 && t[n-1] == ';' {
		t = strings.TrimSpace(t[:n-1])
	}
	switch {
	case strings.EqualFold(t, "BEGIN"):
		return beginStmt
	case strings.EqualFold(t, "COMMIT"):
		return commitStmt
	case strings.EqualFold(t, "ROLLBACK"):
		return rollbackStmt
	}
	return nil
}

// cachedCompile returns the compiled plan for a normalized statement,
// compiling (and caching) on miss or when DDL invalidated the cached
// plan.
func (s *Session) cachedCompile(key string, norm []token) (*compiled, error) {
	ver := s.eng.Catalog().Version()
	if c := s.cache.get(key); c != nil {
		if c.version == ver {
			s.stats.CacheHits++
			return c, nil
		}
		s.stats.CacheInvalidations++
	} else {
		s.stats.CacheMisses++
	}
	stmt, nparams, err := parseToks(norm)
	if err != nil {
		return nil, err
	}
	c, err := compile(s.eng.Catalog(), stmt, nparams)
	if err != nil {
		return nil, err
	}
	if s.cache.put(key, c) {
		s.stats.CacheEvictions++
	}
	return c, nil
}

// litArgs converts literal arguments to bind values in the session's
// reusable scratch buffer (column-type coercion happens per slot).
func (s *Session) litArgs(lits []Literal) []btrim.Value {
	buf := s.argBuf[:0]
	for _, l := range lits {
		buf = append(buf, litValue(l))
	}
	s.argBuf = buf
	return buf
}

// litValue converts a literal to its natural value; slots coerce it to
// the column type at bind time.
func litValue(l Literal) btrim.Value {
	switch l.Kind {
	case LitInt:
		return btrim.Int64(l.I)
	case LitFloat:
		return btrim.Float64(l.F)
	case LitString:
		return btrim.String(l.S)
	default:
		return btrim.Null
	}
}

// execCompiled runs a compiled plan under the session's transaction
// scope.
func (s *Session) execCompiled(c *compiled, args []btrim.Value) (*Result, error) {
	var res *Result
	err := s.do(func(tx Txn) error {
		if len(args) != c.numParams {
			return fmt.Errorf("sql: statement wants %d parameters, got %d", c.numParams, len(args))
		}
		var err error
		res, err = c.run(tx, args)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Prepare parses, plans and registers a named statement. Only DML can
// be prepared. Returns the statement's parameter count.
func (s *Session) Prepare(name, text string) (int, error) {
	if s.aborted {
		return 0, ErrTxnAborted
	}
	stmt, nparams, err := parseText(text)
	if err != nil {
		return 0, s.fail(err)
	}
	switch stmt.(type) {
	case *Select, *Insert, *Update, *Delete:
	default:
		return 0, s.fail(fmt.Errorf("sql: only SELECT, INSERT, UPDATE and DELETE can be prepared"))
	}
	return nparams, s.addPrepared(name, text, stmt, nparams)
}

func (s *Session) addPrepared(name, text string, stmt Statement, nparams int) error {
	if s.prepared == nil {
		s.prepared = make(map[string]*prepStmt)
	}
	if _, dup := s.prepared[name]; dup {
		return s.fail(fmt.Errorf("sql: prepared statement %q already exists", name))
	}
	c, err := compile(s.eng.Catalog(), stmt, nparams)
	if err != nil {
		return s.fail(err)
	}
	s.prepared[name] = &prepStmt{text: text, stmt: stmt, numParams: nparams, c: c}
	return nil
}

// ExecPrepared executes a prepared statement with typed bind args (the
// wire protocol's bind path and EXECUTE both land here). The plan is
// recompiled first if DDL moved the catalog version under it.
func (s *Session) ExecPrepared(name string, args []btrim.Value) (*Result, error) {
	if s.aborted {
		return nil, ErrTxnAborted
	}
	ps := s.prepared[name]
	if ps == nil {
		return nil, s.fail(fmt.Errorf("%w %q", ErrNoPrepared, name))
	}
	if ps.c.version != s.eng.Catalog().Version() {
		s.stats.CacheInvalidations++
		c, err := compile(s.eng.Catalog(), ps.stmt, ps.numParams)
		if err != nil {
			return nil, s.fail(err)
		}
		ps.c = c
	}
	s.stats.PreparedExecs++
	return s.execCompiled(ps.c, args)
}

// Deallocate drops a prepared statement.
func (s *Session) Deallocate(name string) error {
	if _, ok := s.prepared[name]; !ok {
		return fmt.Errorf("%w %q", ErrNoPrepared, name)
	}
	delete(s.prepared, name)
	return nil
}

// ExecParsed executes an already-parsed statement.
func (s *Session) ExecParsed(stmt Statement) (*Result, error) {
	switch st := stmt.(type) {
	case *Begin:
		if s.aborted {
			return nil, ErrTxnAborted
		}
		if s.tx != nil {
			return nil, ErrTxnOpen
		}
		s.tx = s.eng.Begin()
		return &Result{Msg: "BEGIN"}, nil
	case *Commit:
		if s.aborted {
			s.aborted = false
			return nil, fmt.Errorf("COMMIT of an aborted transaction: %w", ErrTxnAborted)
		}
		if s.tx == nil {
			return nil, ErrNoTxn
		}
		tx := s.tx
		s.tx = nil
		if err := tx.Commit(); err != nil {
			// A failed engine commit has already rolled itself back; the
			// session returns to autocommit with nothing applied.
			return nil, err
		}
		return &Result{Msg: "COMMIT"}, nil
	case *Rollback:
		if s.aborted {
			s.aborted = false
			return &Result{Msg: "ROLLBACK"}, nil
		}
		if s.tx == nil {
			return nil, ErrNoTxn
		}
		s.tx.Abort()
		s.tx = nil
		return &Result{Msg: "ROLLBACK"}, nil
	case *CreateTable:
		if s.aborted {
			return nil, ErrTxnAborted
		}
		if s.tx != nil {
			return nil, s.fail(ErrDDLInTxn)
		}
		spec := btrim.TableSpec{Name: st.Name, Columns: st.Columns, PrimaryKey: st.PrimaryKey}
		if err := s.eng.CreateTable(spec); err != nil {
			return nil, err
		}
		return &Result{Msg: "CREATE TABLE"}, nil
	case *DropTable:
		if s.aborted {
			return nil, ErrTxnAborted
		}
		if s.tx != nil {
			return nil, s.fail(ErrDDLInTxn)
		}
		if err := s.eng.DropTable(st.Name); err != nil {
			return nil, err
		}
		return &Result{Msg: "DROP TABLE"}, nil
	case *ShowTables:
		if s.aborted {
			return nil, ErrTxnAborted
		}
		names := sortedTableNames(s.eng.Catalog())
		res := &Result{Cols: []string{"table"}, Msg: "SHOW TABLES"}
		for _, n := range names {
			res.Rows = append(res.Rows, btrim.Values(btrim.String(n)))
		}
		return res, nil
	case *Prepare:
		// PREPARE is session state, not engine work: legal inside an open
		// transaction block, rejected only while aborted.
		if s.aborted {
			return nil, ErrTxnAborted
		}
		if err := s.addPrepared(st.Name, "", st.Stmt, st.NumParams); err != nil {
			return nil, err
		}
		return &Result{Msg: "PREPARE"}, nil
	case *Execute:
		// The result keeps the inner statement's verb (SELECT, INSERT...):
		// EXECUTE is transparent to the caller.
		return s.ExecPrepared(st.Name, s.litArgs(st.Args))
	case *Deallocate:
		if s.aborted {
			return nil, ErrTxnAborted
		}
		if err := s.Deallocate(st.Name); err != nil {
			return nil, s.fail(err)
		}
		return &Result{Msg: "DEALLOCATE"}, nil
	default:
		// DML arriving as a parsed AST (the CLI's path): compile on the
		// fly — correct but uncached; Exec is the fast path.
		c, err := compile(s.eng.Catalog(), stmt, countParams(stmt))
		if err != nil {
			return nil, s.fail(err)
		}
		return s.execCompiled(c, nil)
	}
}

// countParams returns the number of placeholders in a parsed DML
// statement (ASTs handed to ExecParsed directly, bypassing the parser's
// counter).
func countParams(stmt Statement) int {
	max := 0
	note := func(l Literal) {
		if l.Kind == LitParam && int(l.I)+1 > max {
			max = int(l.I) + 1
		}
	}
	preds := func(ps []Pred) {
		for _, p := range ps {
			note(p.Lit)
			for _, l := range p.In {
				note(l)
			}
		}
	}
	switch st := stmt.(type) {
	case *Select:
		preds(st.Where)
	case *Insert:
		for _, r := range st.Rows {
			for _, l := range r {
				note(l)
			}
		}
	case *Update:
		for _, a := range st.Assigns {
			note(a.Lit)
		}
		preds(st.Where)
	case *Delete:
		preds(st.Where)
	}
	return max
}

// do runs fn inside the session's transaction scope: the open explicit
// transaction when one exists (a failure aborts it and parks the
// session in the aborted state), otherwise one autocommit transaction.
func (s *Session) do(fn func(Txn) error) error {
	if s.aborted {
		return ErrTxnAborted
	}
	if s.expired() {
		if s.tx != nil {
			return s.fail(ErrDeadlineExceeded)
		}
		return ErrDeadlineExceeded
	}
	if s.tx != nil {
		if err := fn(s.wrapTx(s.tx)); err != nil {
			return s.fail(err)
		}
		return nil
	}
	tx := s.eng.Begin()
	// A panicking statement must not leak the autocommit transaction: an
	// unfinished transaction pins engine resources (snapshots, the
	// commit lock) and would wedge checkpoint and shutdown. The explicit-
	// transaction path above needs no equivalent — the session still
	// holds s.tx, and Reset/Close abort it.
	defer func() {
		if r := recover(); r != nil {
			tx.Abort()
			panic(r)
		}
	}()
	if err := fn(s.wrapTx(tx)); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// expired reports whether the armed statement deadline has passed.
func (s *Session) expired() bool {
	return !s.deadline.IsZero() && !s.now().Before(s.deadline)
}

// wrapTx interposes the deadline checker when a deadline is armed.
func (s *Session) wrapTx(tx Txn) Txn {
	if s.deadline.IsZero() {
		return tx
	}
	return &deadlineTxn{Txn: tx, deadline: s.deadline, now: s.now}
}
