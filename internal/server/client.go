package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"repro/btrim"
	"repro/internal/fault"
	"repro/internal/sql"
)

// RetryableError marks a server-reported failure whose retryable bit
// was set on the wire: the statement had no durable effect and the
// condition (capacity, deadline, a shard mid-recovery, drain) is
// expected to clear. Unwrap reaches the typed sentinel; FaultTransient
// plugs it straight into internal/fault retriers.
type RetryableError struct{ Err error }

// Error implements error.
func (e *RetryableError) Error() string { return e.Err.Error() }

// Unwrap exposes the reconstructed server error.
func (e *RetryableError) Unwrap() error { return e.Err }

// FaultTransient classifies the error as transient for internal/fault.
func (e *RetryableError) FaultTransient() bool { return true }

// IsRetryable reports whether err carries the server's retryable bit.
func IsRetryable(err error) bool {
	var r *RetryableError
	return errors.As(err, &r)
}

// Client is a wire-protocol client: one TCP connection, one server-side
// session. It is not safe for concurrent use — like a session, each
// goroutine should own its own.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	buf  []byte
}

// Dial connects to a btrimd server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
	}
}

// Exec sends one statement and returns its result. Typed session
// errors (sql.ErrTxnAborted, btrim.ErrDuplicateKey, ...) survive the
// round trip and match with errors.Is.
func (c *Client) Exec(stmt string) (*sql.Result, error) {
	if err := writeFrame(c.bw, []byte(stmt)); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	resp, err := readFrame(c.br, c.buf)
	if err != nil {
		return nil, err
	}
	c.buf = resp
	return decodeResponse(resp)
}

// ExecRetry runs Exec, backing off and retrying while the server
// reports retryable failures. Transport errors (broken connection,
// short read) are permanent — the stream state is unknown, so the
// caller must redial — and so is every error without the retryable
// bit. The zero policy takes the fault-package defaults; statements
// retried this way must be safe to re-issue (the retryable classes all
// guarantee the failed attempt had no durable effect).
func (c *Client) ExecRetry(stmt string, p fault.Policy) (*sql.Result, error) {
	r := fault.NewRetrier(p)
	var res *sql.Result
	err := r.Do(func() error {
		var err error
		res, err = c.Exec(stmt)
		return err // *RetryableError already classifies as transient
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Close closes the connection; the server aborts any open transaction.
func (c *Client) Close() error { return c.conn.Close() }

// StmtResult is one statement's outcome inside a batch: exactly one of
// Res and Err is set. After a mid-batch failure the failed statement
// carries its real error and every later one carries ErrStmtSkipped.
type StmtResult struct {
	Res *sql.Result
	Err error
}

// Pipeline accumulates statements to send in one request frame — one
// round trip for the whole batch instead of one per statement. Queue
// methods never touch the network; Run sends the frame and returns one
// StmtResult per queued message, in order. Like the Client it belongs
// to, a Pipeline is single-goroutine.
type Pipeline struct {
	c       *Client
	n       int
	buf     []byte // encoded messages, headerless
	payload []byte // frame scratch, reused across Runs
}

// Pipeline starts an empty batch on this connection.
func (c *Client) Pipeline() *Pipeline { return &Pipeline{c: c} }

// Queue adds one SQL statement.
func (p *Pipeline) Queue(stmt string) *Pipeline {
	p.buf = appendBatchMsg(p.buf, &batchMsg{kind: msgSQL, sql: stmt})
	p.n++
	return p
}

// QueuePrepare adds a PREPARE of text under name.
func (p *Pipeline) QueuePrepare(name, text string) *Pipeline {
	p.buf = appendBatchMsg(p.buf, &batchMsg{kind: msgPrepare, name: name, sql: text})
	p.n++
	return p
}

// QueueExecute adds an execution of a prepared statement with typed
// bind arguments — no literal quoting, no re-parse on the server.
func (p *Pipeline) QueueExecute(name string, args ...btrim.Value) *Pipeline {
	p.buf = appendBatchMsg(p.buf, &batchMsg{kind: msgBind, name: name, args: args})
	p.n++
	return p
}

// QueueDeallocate adds a DEALLOCATE of name.
func (p *Pipeline) QueueDeallocate(name string) *Pipeline {
	p.buf = appendBatchMsg(p.buf, &batchMsg{kind: msgDeallocate, name: name})
	p.n++
	return p
}

// Len reports the number of queued statements.
func (p *Pipeline) Len() int { return p.n }

// Run sends the batch and decodes its per-statement results, then
// resets the pipeline for reuse. A transport or framing error is
// returned as the single error (the per-statement results are unknown —
// the caller must redial); statement failures come back inside the
// StmtResults.
func (p *Pipeline) Run() ([]StmtResult, error) {
	if p.n == 0 {
		return nil, nil
	}
	payload := append(p.payload[:0], batchMagic)
	payload = binary.AppendUvarint(payload, uint64(p.n))
	payload = append(payload, p.buf...)
	p.payload = payload
	want := p.n
	p.n, p.buf = 0, p.buf[:0]

	c := p.c
	if err := writeFrame(c.bw, payload); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	resp, err := readFrame(c.br, c.buf)
	if err != nil {
		return nil, err
	}
	c.buf = resp
	return decodeMulti(resp, want)
}

// decodeMulti splits a 'M' response into per-statement results. A
// single-response frame (the server could not parse the batch, or the
// reply outgrew the frame limit) becomes the overall error. The whole
// frame decodes into one arena (respArena): a first pass over the
// responses' headers sizes it, so a batch costs the same allocations
// for one statement as for fifty.
func decodeMulti(b []byte, want int) ([]StmtResult, error) {
	if len(b) == 0 {
		return nil, io.ErrUnexpectedEOF
	}
	if b[0] != tagMulti {
		if _, err := decodeResponse(b); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("server: expected batch response, got tag %q", b[0])
	}
	count, sz := binary.Uvarint(b[1:])
	if sz <= 0 || count > uint64(len(b)-1) {
		return nil, io.ErrUnexpectedEOF
	}
	if int(count) != want {
		return nil, fmt.Errorf("server: batch of %d answered with %d results", want, count)
	}
	first := 1 + sz
	// each calls fn with the offset and length of every response.
	each := func(fn func(off, n int)) error {
		for off, i := first, uint64(0); i < count; i++ {
			n, sz := binary.Uvarint(b[off:])
			if sz <= 0 || uint64(len(b)-off-sz) < n {
				return io.ErrUnexpectedEOF
			}
			fn(off+sz, int(n))
			off += sz + int(n)
		}
		return nil
	}
	var fs frameSize
	if err := each(func(off, n int) { fs.add(b[off : off+n]) }); err != nil {
		return nil, err
	}
	a := newRespArena(b, int(count), fs)
	out := make([]StmtResult, 0, count)
	_ = each(func(off, n int) { // the first pass checked the framing
		res := &a.results[len(out)]
		if err := a.decode(b[off:off+n], a.str[off:off+n], res); err != nil {
			out = append(out, StmtResult{Err: err})
		} else {
			out = append(out, StmtResult{Res: res})
		}
	})
	return out, nil
}

// ExecBatch pipelines plain SQL statements in one round trip. See
// Pipeline for the prepared-statement form.
func (c *Client) ExecBatch(stmts ...string) ([]StmtResult, error) {
	p := c.Pipeline()
	for _, s := range stmts {
		p.Queue(s)
	}
	return p.Run()
}
