// Package server is the network layer above the SQL front end: a
// length-prefixed statement protocol over TCP, one goroutine and one
// sql.Session per connection, graceful drain on shutdown, and a client
// used by the shell's remote mode and the benchmark's server path
// (DESIGN.md §13).
//
// Framing: every message is a 4-byte big-endian length followed by that
// many payload bytes. A request payload is either one UTF-8 SQL
// statement, or — when its first byte is 0x00, which no SQL text starts
// with — a pipelined batch:
//
//	0x00, uvarint count, then count messages, each a kind byte + body:
//	  'S' sql        — uvarint len, statement text
//	  'P' prepare    — uvarint len + name, uvarint len + statement text
//	  'B' bind+exec  — uvarint len + name, uvarint nargs, typed values
//	  'D' deallocate — uvarint len + name
//
// A response payload starts with a tag byte:
//
//	'K' ok      — uvarint affected, then the message string
//	'R' rows    — uvarint ncols, col names, uvarint nrows, values,
//	              then (optionally) uvarint warning length + warning
//	'E' error   — 1 code byte, then the error string; the code's high
//	              bit (flagRetryable) marks failures the client may
//	              retry after backoff
//	'M' multi   — uvarint count, then count sub-responses, each
//	              uvarint-length-prefixed and encoded as above; the
//	              batch reply, one sub-response per request message
//
// A batch executes in order and stops at the first failure: the failed
// message carries its real error, and every later message answers with
// a codeSkipped error (ErrStmtSkipped client-side) without executing —
// so a COMMIT queued behind a failed statement never runs. The frame
// stays aligned either way: every request message gets exactly one
// sub-response.
//
// Values are tagged: 'n' NULL; 'i' + 8-byte int; 'f' + 8-byte IEEE-754
// bits; 's'/'b' + uvarint length + bytes (string / raw bytes).
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/btrim"
	"repro/internal/row"
	"repro/internal/sql"
)

// MaxFrame bounds one protocol frame; larger requests or results are
// rejected rather than buffered.
const MaxFrame = 16 << 20

// Response tags.
const (
	tagOK    = 'K'
	tagRows  = 'R'
	tagErr   = 'E'
	tagMulti = 'M'
)

// batchMagic marks a request payload as a pipelined batch. SQL text is
// UTF-8 and never starts with a NUL, so the discriminator is unambiguous.
const batchMagic = 0x00

// Batch message kinds.
const (
	msgSQL        = 'S'
	msgPrepare    = 'P'
	msgBind       = 'B'
	msgDeallocate = 'D'
)

// Error codes carried on 'E' frames, so typed sentinel errors survive
// the wire.
const (
	codeGeneric byte = iota + 1
	codeTxnAborted
	codeNoTxn
	codeTxnOpen
	codeDuplicateKey
	codeShutdown
	codeDeadline
	codeOverCapacity
	codeReadOnly
	codeShardDown
	codePartialResult
	codeFrameTooLarge
	codeInternal
	codeSkipped
	codeNoPrepared
	codeLockTimeout
	codeTxnRetry
)

// flagRetryable is OR'd onto the code byte when the failure is safe to
// retry after backoff: the statement had no durable effect and the
// condition is expected to clear (capacity, deadline, a shard mid-
// recovery, a drain the client can redirect away from).
const flagRetryable byte = 0x80

// ErrShutdown reports a statement rejected because the server is
// draining.
var ErrShutdown = errors.New("server: shutting down")

// ErrOverCapacity reports a connection rejected at accept because the
// server is at its configured connection limit. Retryable: slots free
// up as other sessions finish.
var ErrOverCapacity = errors.New("server: too many connections")

// ErrFrameTooLarge reports a protocol frame above MaxFrame. The
// connection survives: the oversized payload is drained (inbound) or
// replaced by this error (outbound), and framing stays aligned.
var ErrFrameTooLarge = errors.New("server: frame exceeds size limit")

// ErrInternal reports a statement that panicked inside the server. The
// session was reset (any open transaction aborted); the connection
// survives.
var ErrInternal = errors.New("server: internal error")

// ErrStmtSkipped reports a batch message that never executed because an
// earlier message in the same frame failed. Not retryable on its own:
// the client must look at the first real error and decide what to
// re-issue.
var ErrStmtSkipped = errors.New("server: statement skipped after earlier failure in batch")

func errCode(err error) byte {
	switch {
	case errors.Is(err, sql.ErrTxnAborted):
		return codeTxnAborted
	case errors.Is(err, sql.ErrNoTxn):
		return codeNoTxn
	case errors.Is(err, sql.ErrTxnOpen):
		return codeTxnOpen
	case errors.Is(err, btrim.ErrDuplicateKey):
		return codeDuplicateKey
	case errors.Is(err, ErrShutdown):
		return codeShutdown
	case errors.Is(err, sql.ErrDeadlineExceeded):
		return codeDeadline
	case errors.Is(err, ErrOverCapacity):
		return codeOverCapacity
	case errors.Is(err, btrim.ErrPartialResult):
		return codePartialResult
	case errors.Is(err, btrim.ErrShardDown):
		return codeShardDown
	case errors.Is(err, btrim.ErrReadOnly):
		return codeReadOnly
	case errors.Is(err, ErrFrameTooLarge):
		return codeFrameTooLarge
	case errors.Is(err, ErrInternal):
		return codeInternal
	case errors.Is(err, ErrStmtSkipped):
		return codeSkipped
	case errors.Is(err, sql.ErrNoPrepared):
		return codeNoPrepared
	case errors.Is(err, btrim.ErrLockTimeout):
		return codeLockTimeout
	case errors.Is(err, btrim.ErrTxnRetry):
		return codeTxnRetry
	}
	return codeGeneric
}

// retryableErr classifies server-side failures for the wire's retryable
// bit. Deadline, capacity, drain, partial results, and down or
// recovering shards clear on their own; a ReadOnly rejection is
// retryable only for the recoverable park (in-doubt resolution
// pending), never for the sticky poisoned-WAL freeze.
func retryableErr(err error) bool {
	switch {
	case errors.Is(err, sql.ErrDeadlineExceeded),
		errors.Is(err, ErrOverCapacity),
		errors.Is(err, ErrShutdown),
		errors.Is(err, btrim.ErrPartialResult),
		errors.Is(err, btrim.ErrShardDown),
		// Lock waits and engine conflict aborts clear on their own;
		// the transaction was already rolled back, so re-running it
		// from the top is always safe.
		errors.Is(err, btrim.ErrLockTimeout),
		errors.Is(err, btrim.ErrTxnRetry):
		return true
	}
	return btrim.IsRecoverableReadOnly(err)
}

// codeErr rebuilds a client-side error that wraps the matching sentinel
// so errors.Is works across the wire. A set retryable bit additionally
// wraps the result in *RetryableError.
func codeErr(code byte, msg string) error {
	retry := code&flagRetryable != 0
	code &^= flagRetryable
	var err error
	switch code {
	case codeTxnAborted:
		err = wrapSentinel(msg, sql.ErrTxnAborted)
	case codeNoTxn:
		err = wrapSentinel(msg, sql.ErrNoTxn)
	case codeTxnOpen:
		err = wrapSentinel(msg, sql.ErrTxnOpen)
	case codeDuplicateKey:
		err = wrapSentinel(msg, btrim.ErrDuplicateKey)
	case codeShutdown:
		err = wrapSentinel(msg, ErrShutdown)
	case codeDeadline:
		err = wrapSentinel(msg, sql.ErrDeadlineExceeded)
	case codeOverCapacity:
		err = wrapSentinel(msg, ErrOverCapacity)
	case codeReadOnly:
		err = wrapSentinel(msg, btrim.ErrReadOnly)
	case codeShardDown:
		err = wrapSentinel(msg, btrim.ErrShardDown)
	case codePartialResult:
		err = wrapSentinel(msg, btrim.ErrPartialResult)
	case codeFrameTooLarge:
		err = wrapSentinel(msg, ErrFrameTooLarge)
	case codeInternal:
		err = wrapSentinel(msg, ErrInternal)
	case codeSkipped:
		err = wrapSentinel(msg, ErrStmtSkipped)
	case codeNoPrepared:
		err = wrapSentinel(msg, sql.ErrNoPrepared)
	case codeLockTimeout:
		err = wrapSentinel(msg, btrim.ErrLockTimeout)
	case codeTxnRetry:
		err = wrapSentinel(msg, btrim.ErrTxnRetry)
	default:
		err = errors.New(msg)
	}
	if retry {
		err = &RetryableError{Err: err}
	}
	return err
}

// wrapSentinel attaches the sentinel without repeating its text when
// the server-side message already ends with it.
func wrapSentinel(msg string, sentinel error) error {
	if s := sentinel.Error(); msg == s || strings.HasSuffix(msg, s) {
		if msg == s {
			return sentinel
		}
		return fmt.Errorf("%s%w", msg[:len(msg)-len(sentinel.Error())], sentinel)
	}
	return fmt.Errorf("%s: %w", msg, sentinel)
}

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("server: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one length-prefixed frame, reusing buf when it fits.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		// Drain the oversized payload so the stream stays frame-aligned:
		// the caller can answer with a typed error and keep the
		// connection, instead of desyncing and misparsing payload bytes
		// as the next frame header.
		if _, err := io.CopyN(io.Discard, r, int64(n)); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("server: frame of %d bytes exceeds %d byte limit: %w", n, MaxFrame, ErrFrameTooLarge)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func appendValue(b []byte, v btrim.Value) []byte {
	switch v.Kind() {
	case row.KindInt64:
		b = append(b, 'i')
		b = binary.BigEndian.AppendUint64(b, uint64(v.Int()))
	case row.KindFloat64:
		b = append(b, 'f')
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case row.KindString:
		b = append(b, 's')
		b = binary.AppendUvarint(b, uint64(len(v.Str())))
		b = append(b, v.Str()...)
	case row.KindBytes:
		b = append(b, 'b')
		b = binary.AppendUvarint(b, uint64(len(v.Raw())))
		b = append(b, v.Raw()...)
	default:
		b = append(b, 'n')
	}
	return b
}

// decodeValue consumes one value. Strings are sliced out of s, as in
// decodeString; bytes values get a copy of their own, which the caller
// may write to.
func decodeValue(b []byte, s string) (btrim.Value, []byte, error) {
	if len(b) == 0 {
		return btrim.Null, nil, io.ErrUnexpectedEOF
	}
	tag := b[0]
	b = b[1:]
	switch tag {
	case 'n':
		return btrim.Null, b, nil
	case 'i':
		if len(b) < 8 {
			return btrim.Null, nil, io.ErrUnexpectedEOF
		}
		return btrim.Int64(int64(binary.BigEndian.Uint64(b))), b[8:], nil
	case 'f':
		if len(b) < 8 {
			return btrim.Null, nil, io.ErrUnexpectedEOF
		}
		return btrim.Float64(math.Float64frombits(binary.BigEndian.Uint64(b))), b[8:], nil
	case 's', 'b':
		n, sz := binary.Uvarint(b)
		if sz <= 0 || uint64(len(b)-sz) < n {
			return btrim.Null, nil, io.ErrUnexpectedEOF
		}
		if tag == 's' {
			s = tail(s, b)
			return btrim.String(s[sz : sz+int(n)]), b[sz+int(n):], nil
		}
		return btrim.Bytes(append([]byte(nil), b[sz:sz+int(n)]...)), b[sz+int(n):], nil
	default:
		return btrim.Null, nil, fmt.Errorf("server: bad value tag %q", tag)
	}
}

// encodeResponse serializes a statement outcome into buf.
func encodeResponse(buf []byte, res *sql.Result, err error) []byte {
	buf = buf[:0]
	if err != nil {
		code := errCode(err)
		if retryableErr(err) {
			code |= flagRetryable
		}
		buf = append(buf, tagErr, code)
		buf = append(buf, err.Error()...)
		return buf
	}
	if res.Cols == nil {
		buf = append(buf, tagOK)
		buf = binary.AppendUvarint(buf, uint64(res.Affected))
		buf = append(buf, res.Msg...)
		return buf
	}
	buf = append(buf, tagRows)
	buf = binary.AppendUvarint(buf, uint64(len(res.Cols)))
	for _, c := range res.Cols {
		buf = binary.AppendUvarint(buf, uint64(len(c)))
		buf = append(buf, c...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(res.Rows)))
	for _, r := range res.Rows {
		for _, v := range r {
			buf = appendValue(buf, v)
		}
	}
	if res.Warning != "" {
		buf = binary.AppendUvarint(buf, uint64(len(res.Warning)))
		buf = append(buf, res.Warning...)
	}
	return buf
}

// okMsg returns the message of an OK response, without an allocation
// for the verbs a transaction sends over and over.
func okMsg(b []byte) string {
	switch string(b) {
	case "INSERT":
		return "INSERT"
	case "UPDATE":
		return "UPDATE"
	case "DELETE":
		return "DELETE"
	case "BEGIN":
		return "BEGIN"
	case "COMMIT":
		return "COMMIT"
	case "ROLLBACK":
		return "ROLLBACK"
	}
	return string(b)
}

// decodeResponse is the client-side inverse of encodeResponse.
func decodeResponse(b []byte) (*sql.Result, error) {
	var fs frameSize
	fs.add(b)
	a := newRespArena(b, 1, fs)
	if err := a.decode(b, a.str, &a.results[0]); err != nil {
		return nil, err
	}
	return &a.results[0], nil
}

// respArena is the memory of one decoded frame: every result, column
// name, row header and value of its responses in one array each, and
// one string copy of the payload that every string is sliced from. A
// frame therefore decodes in the same few allocations whatever its
// statement and row counts, and shares no memory with the frame
// buffer, which the client reuses. Bytes values are copied one by one:
// callers may write to them.
type respArena struct {
	str     string
	results []sql.Result
	cols    []string
	rows    []btrim.Row
	vals    []btrim.Value
}

// frameSize is what the responses of a frame decode into.
type frameSize struct{ cols, rows, vals int }

// add counts one encoded response.
func (f *frameSize) add(b []byte) {
	nc, nr := rowsSize(b)
	f.cols += nc
	f.rows += nr
	f.vals += nc * nr
}

// newRespArena makes the arena of payload, which holds n responses of
// size fs.
func newRespArena(payload []byte, n int, fs frameSize) *respArena {
	a := &respArena{str: string(payload), results: make([]sql.Result, n)}
	if fs.cols > 0 {
		a.cols = make([]string, fs.cols)
	}
	if fs.rows > 0 {
		a.rows = make([]btrim.Row, fs.rows)
		a.vals = make([]btrim.Value, fs.vals)
	}
	return a
}

// take carves n elements off the front of *buf, capped so an append to
// them cannot run into the next; a short arena (sized from a malformed
// frame) or n = 0 gets a slice of its own.
func take[T any](buf *[]T, n int) []T {
	if n == 0 || n > len(*buf) {
		return make([]T, n)
	}
	s := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return s
}

// decode decodes one response b into res; str is the copy of b in the
// arena's string. A malformed response, like an error response, comes
// back as the error.
func (a *respArena) decode(b []byte, str string, res *sql.Result) error {
	if len(b) == 0 {
		return io.ErrUnexpectedEOF
	}
	tag := b[0]
	b = b[1:]
	switch tag {
	case tagErr:
		if len(b) == 0 {
			return io.ErrUnexpectedEOF
		}
		return codeErr(b[0], string(b[1:]))
	case tagOK:
		aff, sz := binary.Uvarint(b)
		if sz <= 0 {
			return io.ErrUnexpectedEOF
		}
		*res = sql.Result{Affected: int64(aff), Msg: okMsg(b[sz:])}
		return nil
	case tagRows:
		ncols, sz := binary.Uvarint(b)
		if sz <= 0 {
			return io.ErrUnexpectedEOF
		}
		b = b[sz:]
		// Every column name costs at least its one-byte length prefix, so
		// a count beyond the remaining payload is malformed — reject it
		// before sizing the allocation to an attacker-chosen number.
		if ncols > uint64(len(b)) {
			return io.ErrUnexpectedEOF
		}
		res.Cols = take(&a.cols, int(ncols))
		for i := range res.Cols {
			var err error
			if res.Cols[i], b, err = decodeString(b, str); err != nil {
				return err
			}
		}
		nrows, sz := binary.Uvarint(b)
		if sz <= 0 {
			return io.ErrUnexpectedEOF
		}
		b = b[sz:]
		// Same guard for the row count: each row carries ncols values of
		// at least one byte each (and zero-column row frames are never
		// produced, so a nonzero count with no columns is malformed too).
		if ncols == 0 && nrows > 0 || ncols > 0 && nrows > uint64(len(b))/ncols {
			return io.ErrUnexpectedEOF
		}
		if nrows > 0 {
			res.Rows = take(&a.rows, int(nrows))
			vals := take(&a.vals, int(nrows*ncols))
			for i := range res.Rows {
				r := btrim.Row(vals[uint64(i)*ncols : uint64(i+1)*ncols : uint64(i+1)*ncols])
				for j := range r {
					var err error
					if r[j], b, err = decodeValue(b, str); err != nil {
						return err
					}
				}
				res.Rows[i] = r
			}
		}
		// Optional trailing warning (absent in frames from older servers).
		if len(b) > 0 {
			if w, _, err := decodeString(b, str); err == nil {
				res.Warning = w
			}
		}
		return nil
	default:
		return fmt.Errorf("server: bad response tag %q", tag)
	}
}

// rowsSize returns the column and row counts of one encoded response,
// zero for one that is not a well-formed row frame (decode reports it).
// It reads only the header: the counts size the frame's arena before
// any value is decoded.
func rowsSize(b []byte) (ncols, nrows int) {
	if len(b) == 0 || b[0] != tagRows {
		return 0, 0
	}
	b = b[1:]
	nc, sz := binary.Uvarint(b)
	if sz <= 0 || nc > uint64(len(b)-sz) {
		return 0, 0
	}
	b = b[sz:]
	for i := uint64(0); i < nc; i++ {
		n, sz := binary.Uvarint(b)
		if sz <= 0 || uint64(len(b)-sz) < n {
			return 0, 0
		}
		b = b[sz+int(n):]
	}
	nr, sz := binary.Uvarint(b)
	if sz <= 0 || nc == 0 || nr > uint64(len(b)-sz)/nc {
		return int(nc), 0
	}
	return int(nc), int(nr)
}
