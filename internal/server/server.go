package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sql"
)

// Config bounds a server's resource use. The zero value imposes no
// limits (the pre-existing behavior).
type Config struct {
	// MaxConns caps concurrent connections; further connections are
	// rejected at accept with a single retryable over-capacity error
	// frame. 0 = unlimited.
	MaxConns int
	// StatementTimeout bounds each statement's execution; an expired
	// statement fails with sql.ErrDeadlineExceeded (retryable on the
	// wire) and, inside an explicit transaction, aborts it like any
	// other statement failure. 0 = none.
	StatementTimeout time.Duration
	// IdleTimeout reaps connections that send nothing for this long;
	// any open transaction is aborted, exactly as on client hangup.
	// 0 = never.
	IdleTimeout time.Duration
	// DisablePlanCache builds every session with its transparent plan
	// cache off — the benchmark's negative control for pricing the
	// front end; never useful in production.
	DisablePlanCache bool
}

// Server serves the wire protocol over one engine: one goroutine, one
// connection, one sql.Session each, so every client gets its own
// transaction state while all of them share the engine's snapshot
// isolation and group-commit pipelines.
type Server struct {
	eng sql.Engine
	cfg Config

	mu       sync.Mutex
	ln       net.Listener
	sessions map[int64]*session
	draining bool

	wg     sync.WaitGroup
	nextID atomic.Int64

	// Aggregate counters, rolled up into Stats alongside the engine's
	// own statistics.
	totalSessions   atomic.Int64
	statements      atomic.Int64
	rowsReturned    atomic.Int64
	commits         atomic.Int64
	rollbacks       atomic.Int64
	errors          atomic.Int64
	drainAborts     atomic.Int64
	overCapacity    atomic.Int64
	idleReaps       atomic.Int64
	panicRecoveries atomic.Int64
	oversizedFrames atomic.Int64

	// Pipelining counters: batch frames served, statements carried in
	// them, statements skipped after a mid-batch failure, and a
	// power-of-two histogram of statements per frame.
	batchFrames  atomic.Int64
	batchedStmts atomic.Int64
	skippedStmts atomic.Int64
	batchHist    [batchHistBuckets]atomic.Int64

	// Front-end plan-cache rollup, accumulated as deltas from each
	// connection's sql.SessionStats by its own handler goroutine (the
	// session itself is single-goroutine and must not be read directly
	// from Stats).
	planHits          atomic.Int64
	planMisses        atomic.Int64
	planEvictions     atomic.Int64
	planInvalidations atomic.Int64
	preparedExecs     atomic.Int64
}

// batchHistBuckets sizes the statements-per-frame histogram: bucket i
// counts frames of 2^i .. 2^(i+1)-1 statements, the last bucket is
// open-ended.
const batchHistBuckets = 8

func histBucket(n int) int {
	b := bits.Len(uint(n)) - 1
	if b >= batchHistBuckets {
		b = batchHistBuckets - 1
	}
	return b
}

type session struct {
	id     int64
	remote string
	conn   net.Conn
	sess   *sql.Session
	stmts  atomic.Int64
	inTxn  atomic.Bool
	// lastSQL is the previous sql.SessionStats snapshot, used to push
	// deltas into the server rollup. Handler goroutine only.
	lastSQL sql.SessionStats
	// msgs is the batch-decode scratch, recycled frame to frame.
	// Handler goroutine only.
	msgs []batchMsg
}

// rollup pushes the session's front-end counter growth since the last
// snapshot into the server-wide atomics. Called by the handler goroutine
// after each frame and once more at teardown, so closed sessions keep
// counting.
func (s *Server) rollup(c *session) {
	st := c.sess.Stats()
	s.planHits.Add(int64(st.CacheHits - c.lastSQL.CacheHits))
	s.planMisses.Add(int64(st.CacheMisses - c.lastSQL.CacheMisses))
	s.planEvictions.Add(int64(st.CacheEvictions - c.lastSQL.CacheEvictions))
	s.planInvalidations.Add(int64(st.CacheInvalidations - c.lastSQL.CacheInvalidations))
	s.preparedExecs.Add(int64(st.PreparedExecs - c.lastSQL.PreparedExecs))
	c.lastSQL = st
}

// New builds an unlimited server over eng (sql.Wrap).
func New(eng sql.Engine) *Server { return NewWithConfig(eng, Config{}) }

// NewWithConfig builds a server with admission control and deadlines.
func NewWithConfig(eng sql.Engine, cfg Config) *Server {
	return &Server{eng: eng, cfg: cfg, sessions: make(map[int64]*session)}
}

// Serve accepts connections on ln until Shutdown. It returns nil after
// a clean drain.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrShutdown
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		if s.cfg.MaxConns > 0 && len(s.sessions) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.overCapacity.Add(1)
			// Answer the client's first statement with a retryable
			// over-capacity error, then close. Off the accept loop so a
			// slow or absent reader cannot stall admission.
			go rejectOverCapacity(conn)
			continue
		}
		id := s.nextID.Add(1)
		sess := sql.NewSession(s.eng)
		if s.cfg.DisablePlanCache {
			sess.DisablePlanCache()
		}
		c := &session{id: id, remote: conn.RemoteAddr().String(), conn: conn, sess: sess}
		s.sessions[id] = c
		s.mu.Unlock()
		s.totalSessions.Add(1)
		s.wg.Add(1)
		go s.handle(c)
	}
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the listener address (once Serve has been called).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// rejectOverCapacity answers an over-limit connection's first
// statement with one retryable error frame and closes it, bounded by a
// deadline so a dead peer cannot pin the goroutine. The request is read
// before answering: responding first and closing would race the
// client's write against the close and could turn the typed error into
// a connection reset.
func rejectOverCapacity(conn net.Conn) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := readFrame(bufio.NewReader(conn), nil); err != nil && !errors.Is(err, ErrFrameTooLarge) {
		return
	}
	bw := bufio.NewWriter(conn)
	if err := writeFrame(bw, encodeResponse(nil, nil, ErrOverCapacity)); err == nil {
		bw.Flush()
	}
}

// handle runs one connection's request loop.
func (s *Server) handle(c *session) {
	defer s.wg.Done()
	reaped := false
	defer func() {
		// A handler panic must not take the whole server down: recover,
		// count it, and fall through to the connection teardown below.
		if r := recover(); r != nil {
			s.panicRecoveries.Add(1)
		}
		// A connection that ends — client hangup or server drain — must
		// leave no transaction behind: Close aborts any open block, so
		// uncommitted work vanishes atomically.
		if c.sess.InTxn() {
			s.drainAborts.Add(1)
		}
		s.rollup(c)
		c.sess.Close()
		c.conn.Close()
		s.mu.Lock()
		delete(s.sessions, c.id)
		s.mu.Unlock()
		// Counted after the session left s.sessions: Stats reads both.
		if reaped {
			s.idleReaps.Add(1)
		}
	}()

	br := bufio.NewReaderSize(c.conn, 64<<10)
	bw := bufio.NewWriterSize(c.conn, 64<<10)
	var inBuf, outBuf []byte
	for {
		if s.cfg.IdleTimeout > 0 {
			c.conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		req, err := readFrame(br, inBuf)
		switch {
		case err == nil:
			inBuf = req
		case errors.Is(err, ErrFrameTooLarge):
			// The oversized payload was drained; answer with a typed
			// error and keep serving this connection.
			s.oversizedFrames.Add(1)
			req = nil
		default:
			var ne net.Error
			reaped = errors.As(err, &ne) && ne.Timeout()
			return // EOF, client reset, idle reap, or drain closing the conn
		}

		if err == nil && len(req) > 0 && req[0] == batchMagic {
			outBuf = s.executeBatch(c, req, outBuf)
		} else {
			var res *sql.Result
			execErr := err
			if execErr == nil {
				res, execErr = s.execute(c, string(req))
			}
			outBuf = encodeResponse(outBuf, res, execErr)
		}
		s.rollup(c)
		if len(outBuf) > MaxFrame {
			// A result too large to frame becomes a clean error instead
			// of a write-side failure that kills the connection.
			s.oversizedFrames.Add(1)
			outBuf = encodeResponse(outBuf, nil, fmt.Errorf("server: result of %d bytes: %w", len(outBuf), ErrFrameTooLarge))
		}
		if err := writeFrame(bw, outBuf); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// execute runs one statement for a session and maintains the rollup
// counters.
func (s *Server) execute(c *session, stmtText string) (*sql.Result, error) {
	return s.executeFn(c, func() (*sql.Result, error) { return c.sess.Exec(stmtText) })
}

// executeFn runs one session operation under the per-statement guard:
// deadline re-armed from the configured timeout, panics converted to a
// typed internal error with the session reset, counters maintained.
// Every message of a batch frame passes through here individually, so a
// pipelined statement gets the same deadline budget as one sent alone.
func (s *Server) executeFn(c *session, fn func() (*sql.Result, error)) (res *sql.Result, err error) {
	s.statements.Add(1)
	c.stmts.Add(1)
	// A statement that panics is isolated to this session: the panic is
	// converted into a typed internal error, and the session is reset
	// (open transaction aborted) because its state machine can no longer
	// be trusted mid-statement.
	defer func() {
		if r := recover(); r != nil {
			s.panicRecoveries.Add(1)
			s.errors.Add(1)
			c.sess.Reset()
			c.inTxn.Store(false)
			res, err = nil, fmt.Errorf("%w: statement panicked: %v", ErrInternal, r)
		}
	}()
	if s.cfg.StatementTimeout > 0 {
		c.sess.SetStatementDeadline(time.Now().Add(s.cfg.StatementTimeout))
	}
	res, err = fn()
	c.inTxn.Store(c.sess.InTxn())
	if err != nil {
		s.errors.Add(1)
		return nil, err
	}
	switch res.Msg {
	case "COMMIT":
		s.commits.Add(1)
	case "ROLLBACK":
		s.rollbacks.Add(1)
	}
	s.rowsReturned.Add(int64(len(res.Rows)))
	return res, nil
}

// executeMsg dispatches one batch message to the session.
func (s *Server) executeMsg(c *session, m *batchMsg) (*sql.Result, error) {
	switch m.kind {
	case msgSQL:
		return s.execute(c, m.sql)
	case msgPrepare:
		return s.executeFn(c, func() (*sql.Result, error) {
			n, err := c.sess.Prepare(m.name, m.sql)
			if err != nil {
				return nil, err
			}
			return &sql.Result{Msg: "PREPARE", Affected: int64(n)}, nil
		})
	case msgBind:
		return s.executeFn(c, func() (*sql.Result, error) {
			return c.sess.ExecPrepared(m.name, m.args)
		})
	case msgDeallocate:
		return s.executeFn(c, func() (*sql.Result, error) {
			if err := c.sess.Deallocate(m.name); err != nil {
				return nil, err
			}
			return &sql.Result{Msg: "DEALLOCATE"}, nil
		})
	default:
		return nil, fmt.Errorf("server: bad batch message kind %q", m.kind)
	}
}

// executeBatch serves one pipelined frame: messages run in order, the
// first failure stops execution, and every later message answers with a
// typed skipped error so the response count always matches the request
// count and the stream stays frame-aligned.
func (s *Server) executeBatch(c *session, req, out []byte) []byte {
	msgs, err := decodeBatch(req, c.msgs)
	if msgs != nil {
		c.msgs = msgs
	}
	if err != nil {
		// A frame that cannot be parsed gets a single error response:
		// the client knows its batch produced no sub-results.
		s.errors.Add(1)
		return encodeResponse(out, nil, err)
	}
	s.batchFrames.Add(1)
	s.batchedStmts.Add(int64(len(msgs)))
	s.batchHist[histBucket(len(msgs))].Add(1)

	out = append(out[:0], tagMulti)
	out = binary.AppendUvarint(out, uint64(len(msgs)))
	var sub []byte
	failed := false
	for i := range msgs {
		var res *sql.Result
		var err error
		if failed {
			s.skippedStmts.Add(1)
			err = ErrStmtSkipped
		} else if res, err = s.executeMsg(c, &msgs[i]); err != nil {
			failed = true
		}
		sub = encodeResponse(sub, res, err)
		out = binary.AppendUvarint(out, uint64(len(sub)))
		out = append(out, sub...)
	}
	return out
}

// Shutdown drains the server: stop accepting, close every connection
// (which aborts each session's open transaction cleanly — committed
// work stays, uncommitted work vanishes), and wait for the handlers to
// exit or ctx to expire.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	conns := make([]*session, 0, len(s.sessions))
	for _, c := range s.sessions {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.conn.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain incomplete: %w", ctx.Err())
	}
}

// Stats is the server-side rollup: aggregate counters plus one row per
// live session, reported next to the engine's own statistics.
type Stats struct {
	ActiveSessions int
	TotalSessions  int64
	Statements     int64
	RowsReturned   int64
	Commits        int64
	Rollbacks      int64
	Errors         int64
	DrainAborts    int64 // sessions whose open txn was aborted at disconnect
	// Robustness counters: connections rejected at the MaxConns limit,
	// idle connections reaped, statement panics converted to typed
	// errors, and oversized frames survived (both directions).
	OverCapacityRejects int64
	IdleReaps           int64
	PanicRecoveries     int64
	OversizedFrames     int64
	// Pipelining: batch frames served, statements carried inside them,
	// statements skipped after a mid-batch failure, and frames by
	// statement count (bucket i counts frames of 2^i..2^(i+1)-1
	// statements; the last bucket is open-ended).
	BatchFrames       int64
	BatchedStatements int64
	SkippedStatements int64
	BatchSizes        [batchHistBuckets]int64
	// Front-end plan cache, aggregated across all sessions including
	// closed ones.
	PlanCacheHits          int64
	PlanCacheMisses        int64
	PlanCacheEvictions     int64
	PlanCacheInvalidations int64
	PreparedExecs          int64
	Sessions               []SessionStats
}

// SessionStats describes one live session.
type SessionStats struct {
	ID         int64
	Remote     string
	Statements int64
	InTxn      bool
}

// Stats snapshots the rollup.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		ActiveSessions:      len(s.sessions),
		TotalSessions:       s.totalSessions.Load(),
		Statements:          s.statements.Load(),
		RowsReturned:        s.rowsReturned.Load(),
		Commits:             s.commits.Load(),
		Rollbacks:           s.rollbacks.Load(),
		Errors:              s.errors.Load(),
		DrainAborts:         s.drainAborts.Load(),
		OverCapacityRejects: s.overCapacity.Load(),
		IdleReaps:           s.idleReaps.Load(),
		PanicRecoveries:     s.panicRecoveries.Load(),
		OversizedFrames:     s.oversizedFrames.Load(),

		BatchFrames:       s.batchFrames.Load(),
		BatchedStatements: s.batchedStmts.Load(),
		SkippedStatements: s.skippedStmts.Load(),

		PlanCacheHits:          s.planHits.Load(),
		PlanCacheMisses:        s.planMisses.Load(),
		PlanCacheEvictions:     s.planEvictions.Load(),
		PlanCacheInvalidations: s.planInvalidations.Load(),
		PreparedExecs:          s.preparedExecs.Load(),
	}
	for i := range s.batchHist {
		st.BatchSizes[i] = s.batchHist[i].Load()
	}
	for _, c := range s.sessions {
		st.Sessions = append(st.Sessions, SessionStats{
			ID: c.id, Remote: c.remote, Statements: c.stmts.Load(), InTxn: c.inTxn.Load(),
		})
	}
	s.mu.Unlock()
	sort.Slice(st.Sessions, func(i, j int) bool { return st.Sessions[i].ID < st.Sessions[j].ID })
	return st
}
