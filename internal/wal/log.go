package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
)

// frame layout: [4 bodyLen][4 crc32(body)][body]
const frameHeader = 8

// maxEncBuf bounds the capacity of encode buffers returned to the pool,
// so one huge record does not pin a huge buffer forever.
const maxEncBuf = 64 << 10

// maxPendingBuf bounds the pending buffer a log keeps across flushes.
const maxPendingBuf = 1 << 20

// ErrTorn marks a frame that is incomplete or fails its checksum — the
// signature of a write cut short by a crash. Recovery calls RepairTail
// to cut a torn tail off the backend before the log accepts new
// appends.
var ErrTorn = errors.New("wal: torn or corrupt frame")

// ErrPoisoned is returned by Append/Flush after a commit-path flush
// failure. Committers in the failed round rolled back in memory, so
// their already-appended frames (commit markers included) must never
// become durable: the log refuses all further writes and best-effort
// truncates the backend back to the durable watermark.
var ErrPoisoned = errors.New("wal: log poisoned by a failed commit flush")

// Log is an append-only record log with group flush. LSNs are the byte
// offset of a record's frame plus one (so LSN 0 means "nothing logged").
// Appends buffer in memory; Flush persists buffered frames up to a target
// LSN and syncs, implementing the write-ahead rule. Group commit is the
// committer-facing layer on top: in WaitDurable the concurrent
// committers form groups among themselves, and one of each group
// flushes for all of it on its own goroutine (see groupcommit.go).
type Log struct {
	backend Backend

	mu       sync.Mutex
	pending  []byte // appended but not yet handed to the backend
	base     int64  // backend size == offset of pending[0]
	poisoned error  // set after a commit-path flush failure; see poison

	nextLSN    atomic.Uint64   // next LSN to hand out
	flushedLSN atomic.Uint64   // durable prefix
	syncNs     [2]atomic.Int64 // durations of the last two backend Syncs

	// retrier absorbs transient backend failures during Flush before
	// they can escalate into poisoning. Set once at open time via
	// SetRetrier; nil means no retry.
	retrier *fault.Retrier

	stats LogStats

	// Group-commit state (groupcommit.go). gcMu guards the plain fields,
	// but syncEnd, which the leader of the round in flight writes.
	gcMu      sync.Mutex
	gcHalted  atomic.Bool   // AbortGroupCommit ran: commit path is dead
	gcNext    *gcRound      // the round committers join; nil when none forms
	gcBusy    *gcRound      // the round whose leader is lingering or flushing
	gcLinger  chan struct{} // closed to end a lingering leader's wait
	peers     *Peers        // the log's count of writers, which a round may wait for
	contended bool          // the last round served several committers, or saw one arrive
	syncEnd   time.Time     // when the last round's flush returned
	idle      int64         // writers outside a round presumed idle
	released  atomic.Int64  // committers a finished round released, not yet out of WaitDurable
	wakeNs    atomic.Int64  // how long the last committer a round released took to wake

	groupSize  metrics.SizeHistogram    // committers coalesced per flush
	commitWait metrics.LatencyHistogram // WaitDurable blocking time
}

// LogStats counts log activity. Appends/Bytes count only records that
// actually entered the log (validation failures are not counted);
// Flushes counts successful backend syncs.
type LogStats struct {
	Appends atomic.Int64
	Flushes atomic.Int64
	Bytes   atomic.Int64

	// GroupFlushes / GroupedCommits count group-commit rounds and the
	// committers they served; their ratio is the mean group size.
	GroupFlushes   atomic.Int64
	GroupedCommits atomic.Int64

	// LingerRounds counts rounds that held their sync open for
	// writers in flight, LingerGathered those whose wait gathered a
	// committer, and LingerNs the time spent waiting (groupcommit.go).
	LingerRounds   atomic.Int64
	LingerGathered atomic.Int64
	LingerNs       atomic.Int64
}

// NewLog opens a Log over backend, continuing after existing content.
func NewLog(backend Backend) (*Log, error) {
	size, err := backend.Size()
	if err != nil {
		return nil, err
	}
	l := &Log{backend: backend, base: size}
	l.nextLSN.Store(uint64(size) + 1)
	l.flushedLSN.Store(uint64(size) + 1 - 1)
	return l, nil
}

// encPool recycles per-append encode buffers: each Append encodes the
// frame (header + body) into a pooled buffer and copies it into pending
// once, instead of allocating a fresh body slice per record.
var encPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// Append buffers rec and returns its LSN. The record is not durable
// until a flush covers the returned LSN.
func (l *Log) Append(rec *Record) (uint64, error) {
	bp := encPool.Get().(*[]byte)
	buf := (*bp)[:0]
	var hdr [frameHeader]byte
	buf = append(buf, hdr[:]...)
	buf = rec.encode(buf)
	body := buf[frameHeader:]
	if len(body) > 0xFFFFFFF {
		n := len(body)
		encPool.Put(bp)
		return 0, fmt.Errorf("wal: record of %d bytes too large", n)
	}
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(body))

	l.mu.Lock()
	if l.poisoned != nil {
		err := l.poisoned
		l.mu.Unlock()
		if cap(buf) <= maxEncBuf {
			*bp = buf[:0]
			encPool.Put(bp)
		}
		return 0, err
	}
	lsn := uint64(l.base) + uint64(len(l.pending)) + 1
	l.pending = append(l.pending, buf...)
	l.nextLSN.Store(uint64(l.base) + uint64(len(l.pending)) + 1)
	l.mu.Unlock()

	frameLen := int64(len(buf))
	if cap(buf) <= maxEncBuf {
		*bp = buf[:0]
		encPool.Put(bp)
	}
	rec.LSN = lsn
	l.stats.Appends.Add(1)
	l.stats.Bytes.Add(frameLen)
	return lsn, nil
}

// Flush makes all records with LSN <= lsn durable. Flushing an
// already-durable LSN is a no-op.
func (l *Log) Flush(lsn uint64) error {
	if l.flushedLSN.Load() >= lsn {
		return nil
	}
	l.mu.Lock()
	if l.flushedLSN.Load() >= lsn {
		l.mu.Unlock()
		return nil
	}
	if l.poisoned != nil {
		err := l.poisoned
		l.mu.Unlock()
		return err
	}
	pending := l.pending
	newBase := l.base + int64(len(pending))
	if len(pending) > 0 {
		// Retry transient append failures in place (holding l.mu keeps the
		// buffered tail consistent; the backoff delays are sub-millisecond
		// by default). Safe because a failed Append writes nothing the
		// backend acknowledges: FileBackend only advances its size on
		// success and MemBackend appends atomically, so re-running the
		// same batch never duplicates frames.
		if err := l.retrier.Do(func() error {
			_, aerr := l.backend.Append(pending)
			return aerr
		}); err != nil {
			// The buffer stays as it was, so a retry can succeed.
			l.mu.Unlock()
			return err
		}
		l.base = newBase
		// The backend has the bytes and keeps no reference to them
		// (Backend.Append): the next round appends into the same buffer
		// instead of growing a fresh one, unless a burst made it large.
		if cap(pending) <= maxPendingBuf {
			l.pending = pending[:0]
		} else {
			l.pending = nil
		}
	}
	l.mu.Unlock()

	// A racing flush may have synced past lsn while we waited for the
	// buffer swap; skip the redundant Sync. (Our own freshly appended
	// bytes beyond lsn stay buffered in the backend until a later sync.)
	if l.flushedLSN.Load() >= lsn {
		return nil
	}
	syncStart := time.Now()
	if err := l.retrier.Do(l.backend.Sync); err != nil {
		return err
	}
	l.syncNs[1].Store(l.syncNs[0].Swap(int64(time.Since(syncStart))))
	// Everything buffered at the time of the call is now durable.
	for {
		cur := l.flushedLSN.Load()
		target := uint64(newBase)
		if cur >= target || l.flushedLSN.CompareAndSwap(cur, target) {
			break
		}
	}
	l.stats.Flushes.Add(1)
	return nil
}

// FlushAll persists everything appended so far.
func (l *Log) FlushAll() error {
	return l.Flush(l.nextLSN.Load() - 1)
}

// poison marks the log unusable after a commit-path flush failure.
// Every committer in the failed round was told its commit failed and
// unwound its in-memory state, yet its frames — commit markers
// included — may sit in the pending buffer (append failure) or in the
// backend unsynced (sync failure). Were a later flush to succeed, those
// records would become durable and recovery would replay transactions
// the live engine rolled back. So: refuse all further appends and
// flushes, drop the buffered tail, and cut the backend back to the
// durable watermark. The truncate is best effort — a dead device may
// refuse it, in which case the poisoned log still never flushes again
// and the torn-tail repair at the next open cleans what the failed
// batch left on the medium.
func (l *Log) poison(cause error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.poisoned != nil {
		return
	}
	l.poisoned = fmt.Errorf("%w (cause: %v)", ErrPoisoned, cause)
	l.pending = nil
	durable := int64(l.flushedLSN.Load())
	if err := l.backend.Truncate(durable); err == nil {
		l.base = durable
		l.nextLSN.Store(uint64(durable) + 1)
	}
}

// RepairTail scans the log for a torn frame left by a crashed write
// and truncates the backend back to the last valid frame boundary.
// Without the truncation the log would resume appending past the
// garbage (NewLog bases LSNs on the raw backend size), and every
// future reader — including recovery after a second crash — would stop
// at the old tear and silently lose acknowledged records appended
// after it. A torn frame followed by a valid frame is mid-log
// corruption rather than a tail tear; RepairTail refuses to repair it.
// It returns the number of bytes discarded and must run before the log
// accepts appends (Open/recovery time).
func (l *Log) RepairTail() (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.pending) > 0 {
		return 0, fmt.Errorf("wal: RepairTail on a log with buffered appends")
	}
	size := l.base
	s := &scanner{backend: l.backend, end: size}
	torn := int64(-1) // offset of the first torn frame
	for s.off < size {
		// Past a tear, keep walking the claimed frame extents: a valid
		// frame there means the tear is not at the tail.
		_, next, err := s.frame()
		switch {
		case err == nil && torn >= 0:
			return 0, fmt.Errorf("wal: torn frame at offset %d precedes a valid frame at %d: mid-log corruption, not a tail tear", torn, s.off)
		case err != nil && !errors.Is(err, ErrTorn):
			return 0, err
		case err != nil && torn < 0:
			torn = s.off
		}
		s.off = next
	}
	if torn < 0 {
		return 0, nil
	}
	if err := l.backend.Truncate(torn); err != nil {
		return 0, fmt.Errorf("wal: truncating torn tail at %d: %w", torn, err)
	}
	l.base = torn
	l.nextLSN.Store(uint64(torn) + 1)
	l.flushedLSN.Store(uint64(torn))
	return size - torn, nil
}

// SetRetrier installs the transient-failure retrier used by Flush.
// Call before the log sees traffic (open/recovery time); a nil r
// disables retries.
func (l *Log) SetRetrier(r *fault.Retrier) { l.retrier = r }

// Poisoned returns the poisoning error (wrapping ErrPoisoned and the
// root-cause flush failure), or nil while the log is healthy.
func (l *Log) Poisoned() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.poisoned
}

// FlushedLSN returns the durable prefix.
func (l *Log) FlushedLSN() uint64 { return l.flushedLSN.Load() }

// NextLSN returns the LSN the next append will receive.
func (l *Log) NextLSN() uint64 { return l.nextLSN.Load() }

// Stats exposes the log counters.
func (l *Log) Stats() *LogStats { return &l.stats }

// GroupSizeHist exposes the committers-per-flush histogram.
func (l *Log) GroupSizeHist() *metrics.SizeHistogram { return &l.groupSize }

// CommitWaitHist exposes the WaitDurable latency histogram.
func (l *Log) CommitWaitHist() *metrics.LatencyHistogram { return &l.commitWait }

// Size returns the total log size in bytes (durable plus buffered).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + int64(len(l.pending))
}

// Close flushes and closes the backend. The backend is closed even
// when the final flush fails — a poisoned log must still release its
// file handle — and the returned error aggregates every failure
// (errors.Is sees each). A poisoned log always reports its poisoning
// here, even though poison() already emptied the buffered tail and a
// flush would trivially "succeed": callers asking to close cleanly must
// learn the log died. A group-commit round still in flight is waited
// for first, so that its leader never syncs a closed backend.
func (l *Log) Close() error {
	var flushErr error
	if l.Poisoned() == nil {
		flushErr = l.FlushAll()
	}
	l.gcMu.Lock()
	l.await(l.gcBusy)
	return errors.Join(l.Poisoned(), flushErr, l.backend.Close())
}

// CloseBackend releases the backend WITHOUT flushing the buffered
// tail. This is the crash-exact release for a halted log: Close would
// flush records whose committers were already told they failed,
// resurrecting rolled-back transactions at the next recovery. Used
// when a halted engine's file handles must be freed so a fresh
// incarnation can open the same paths.
func (l *Log) CloseBackend() error {
	return l.backend.Close()
}

// Reader iterates records in LSN order. Readers see only flushed
// content; call FlushAll before reading a live log.
type Reader struct{ scanner }

// NewReader returns a reader positioned at fromLSN (or the log start
// when fromLSN <= 1). The reader covers records durable at call time.
func (l *Log) NewReader(fromLSN uint64) (*Reader, error) {
	if err := l.FlushAll(); err != nil {
		return nil, err
	}
	size, err := l.backend.Size()
	if err != nil {
		return nil, err
	}
	off := int64(0)
	if fromLSN > 1 {
		off = int64(fromLSN - 1)
	}
	return &Reader{scanner{backend: l.backend, off: off, end: size}}, nil
}

// Next returns the next record, or io.EOF at the end. An incomplete or
// checksum-failing frame terminates iteration with an error wrapping
// ErrTorn (recovery treats it as the end of the durable log); a frame
// that decodes inconsistently despite a valid checksum is reported as
// plain corruption.
func (r *Reader) Next() (Record, error) {
	if r.off >= r.end {
		return Record{}, io.EOF
	}
	body, next, err := r.frame()
	if err != nil {
		return Record{}, err
	}
	rec, err := decodeRecord(body) // copies Before/After out of the block
	if err != nil {
		return Record{}, err
	}
	rec.LSN = uint64(r.off) + 1
	r.off = next
	return rec, nil
}

// blockSize is how many bytes one backend read fetches when a log is
// scanned: frames are parsed out of memory, not read one by one.
const blockSize = 1 << 20

// scanner walks the frames of backend[off, end), the one frame parser
// behind Reader and RepairTail. It reads a block at a time into one
// reused buffer, which holds backend[bufOff, bufOff+len(buf)).
type scanner struct {
	backend  Backend
	off, end int64
	buf      []byte
	bufOff   int64
}

// frame parses the frame at s.off. next is where the following frame
// starts: the extent the header claims, or end when the header itself
// is cut short. A frame that is cut short, too short to hold a record
// or fails its checksum returns an error wrapping ErrTorn. body
// aliases the buffer until the next call.
func (s *scanner) frame() (body []byte, next int64, err error) {
	if s.off+frameHeader > s.end {
		return nil, s.end, s.torn("header cut short")
	}
	hdr, err := s.bytes(frameHeader)
	if err != nil {
		return nil, 0, err
	}
	bodyLen := int64(binary.LittleEndian.Uint32(hdr[0:]))
	crc := binary.LittleEndian.Uint32(hdr[4:])
	next = s.off + frameHeader + bodyLen
	// Too short to hold a record: an all-zero header claims a 0-byte
	// body with CRC 0, and crc32 of nothing is 0.
	if bodyLen < minBody {
		return nil, next, s.torn(fmt.Sprintf("%d-byte body", bodyLen))
	} else if next > s.end {
		return nil, next, s.torn("body cut short")
	}
	fr, err := s.bytes(frameHeader + bodyLen)
	if err != nil {
		return nil, 0, err
	}
	if body = fr[frameHeader:]; crc32.ChecksumIEEE(body) != crc {
		return nil, next, s.torn("CRC mismatch")
	}
	return body, next, nil
}

// bytes returns backend[s.off, s.off+n), which must lie before end. A
// range the buffer does not hold is read afresh from s.off: one block,
// or the whole frame when that is larger.
func (s *scanner) bytes(n int64) ([]byte, error) {
	if s.off < s.bufOff || s.off+n > s.bufOff+int64(len(s.buf)) {
		m := min(max(n, blockSize), s.end-s.off)
		if int64(cap(s.buf)) < m {
			s.buf = make([]byte, m)
		}
		s.buf, s.bufOff = s.buf[:m], s.off
		if _, err := s.backend.ReadAt(s.buf, s.off); err != nil {
			s.buf = s.buf[:0]
			return nil, err
		}
	}
	i := s.off - s.bufOff
	return s.buf[i : i+n], nil
}

func (s *scanner) torn(why string) error {
	return fmt.Errorf("wal: torn frame at %d (%s): %w", s.off, why, ErrTorn)
}
