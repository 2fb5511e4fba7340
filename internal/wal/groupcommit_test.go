package wal

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rid"
)

// TestWaitDurableLoneCommitterLeads: a committer that finds the log idle
// flushes it on its own goroutine, as a round of one.
func TestWaitDurableLoneCommitterLeads(t *testing.T) {
	b := &stackBackend{Backend: NewMemBackend()}
	l, err := NewLog(b)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(&Record{Type: RecCommit, TxnID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if l.FlushedLSN() < lsn {
		t.Fatal("WaitDurable returned before its LSN was durable")
	}
	if len(b.leaders) != 1 {
		t.Fatalf("%d syncs, want 1", len(b.leaders))
	}
	assertLedByCommitters(t, l, b)
	st := l.Stats()
	if st.GroupFlushes.Load() != 1 || st.GroupedCommits.Load() != 1 {
		t.Fatalf("rounds %d, commits %d; want one round of one", st.GroupFlushes.Load(), st.GroupedCommits.Load())
	}
}

// stackBackend records, for every Sync of the backend it wraps, the
// goroutine that ran it and whether it ran inside Log.WaitDurable.
type stackBackend struct {
	Backend
	mu            sync.Mutex
	leaders       []string
	inWaitDurable []bool
}

func (b *stackBackend) Sync() error {
	buf := make([]byte, 8<<10)
	st := buf[:runtime.Stack(buf, false)]
	id, _, _ := bytes.Cut(st, []byte(" ["))
	b.mu.Lock()
	b.leaders = append(b.leaders, string(id))
	b.inWaitDurable = append(b.inWaitDurable, bytes.Contains(st, []byte("(*Log).WaitDurable")))
	b.mu.Unlock()
	return b.Backend.Sync()
}

// TestGroupCommitNextLeader: committers lead their own rounds. Those
// queued behind a round in flight are not covered by it; one of them
// leads the next, and every WaitDurable returns only once its LSN is
// durable, with no committer or round left behind.
func TestGroupCommitNextLeader(t *testing.T) {
	t.Run("behind a held round", func(t *testing.T) {
		gate := newGateBackend()
		b := &stackBackend{Backend: gate}
		l, err := NewLog(b)
		if err != nil {
			t.Fatal(err)
		}
		first := holdOneCommitter(t, l, gate)
		done := commitConcurrently(t, l, 7, 1)
		awaitQueued(t, l, 7)
		gate.release()
		if err := awaitOutcome(t, first, "held committer"); err != nil {
			t.Fatal(err)
		}
		if err := awaitOutcome(t, done, "queued committers"); err != nil {
			t.Fatal(err)
		}
		if len(b.leaders) != 2 || b.leaders[0] == b.leaders[1] {
			t.Fatalf("rounds led by %q; want two rounds, the second led by a queued committer", b.leaders)
		}
		assertLedByCommitters(t, l, b)
		if got := l.Stats().GroupedCommits.Load(); got != 8 {
			t.Fatalf("grouped commits = %d, want 8", got)
		}
	})
	t.Run("on a slow device", func(t *testing.T) {
		b := &stackBackend{Backend: newSlowBackend(time.Millisecond)}
		l, err := NewLog(b)
		if err != nil {
			t.Fatal(err)
		}
		const committers, each = 8, 25
		if err := awaitOutcome(t, commitConcurrently(t, l, committers, each), "committers"); err != nil {
			t.Fatal(err)
		}
		assertLedByCommitters(t, l, b)
		leaders := map[string]bool{}
		for _, id := range b.leaders {
			leaders[id] = true
		}
		st := l.Stats()
		if len(leaders) < 2 || st.GroupFlushes.Load() >= committers*each {
			t.Fatalf("%d commits in %d rounds led by %d committers; want groups, led by several",
				st.GroupedCommits.Load(), st.GroupFlushes.Load(), len(leaders))
		}
	})
}

// commitConcurrently starts n committers that each append and await
// `each` records, checking that every WaitDurable returns only once its
// LSN is durable. The channel reports the first failure, or nil once
// all have finished.
func commitConcurrently(t *testing.T, l *Log, n, each int) <-chan error {
	t.Helper()
	errs := make(chan error, n)
	for w := 0; w < n; w++ {
		go func(w int) {
			for i := 0; i < each; i++ {
				lsn, err := l.Append(&Record{Type: RecCommit, TxnID: uint64(w*each + i)})
				if err == nil {
					err = l.WaitDurable(lsn)
				}
				if err == nil && l.FlushedLSN() < lsn {
					err = errors.New("WaitDurable returned before its LSN was durable")
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	done := make(chan error, 1)
	go func() {
		var first error
		for w := 0; w < n; w++ {
			if err := <-errs; err != nil && first == nil {
				first = err
			}
		}
		done <- first
	}()
	return done
}

// assertLedByCommitters checks that every sync of l ran inside a
// committer's WaitDurable and that no round is left behind.
func assertLedByCommitters(t *testing.T, l *Log, b *stackBackend) {
	t.Helper()
	for i, in := range b.inWaitDurable {
		if !in {
			t.Fatalf("sync %d ran outside WaitDurable", i)
		}
	}
	l.gcMu.Lock()
	defer l.gcMu.Unlock()
	if l.gcBusy != nil || l.gcNext != nil || l.gcLinger != nil {
		t.Fatal("a round is left behind")
	}
}

// gateBackend is a MemBackend whose Sync can be held: while a hold is
// armed, every Sync announces itself on entered and then blocks until
// release. Committers that arrive meanwhile stay queued behind the
// in-flight round, which is how these tests build a group.
type gateBackend struct {
	*MemBackend
	mu      sync.Mutex
	gate    chan struct{}
	entered chan struct{}
	syncs   atomic.Int64
}

func newGateBackend() *gateBackend {
	return &gateBackend{MemBackend: NewMemBackend(), entered: make(chan struct{}, 1)}
}

func (b *gateBackend) hold() {
	b.mu.Lock()
	b.gate = make(chan struct{})
	b.mu.Unlock()
}

func (b *gateBackend) release() {
	b.mu.Lock()
	if b.gate != nil {
		close(b.gate)
		b.gate = nil
	}
	b.mu.Unlock()
}

func (b *gateBackend) Sync() error {
	b.syncs.Add(1)
	b.mu.Lock()
	g := b.gate
	b.mu.Unlock()
	if g != nil {
		select {
		case b.entered <- struct{}{}:
		default: // already announced; nobody has looked yet
		}
		<-g
	}
	return b.MemBackend.Sync()
}

// holdOneCommitter parks one committer's flush round inside a held Sync
// and returns the channel its WaitDurable outcome arrives on.
func holdOneCommitter(t *testing.T, l *Log, b *gateBackend) <-chan error {
	t.Helper()
	b.hold()
	lsn, err := l.Append(&Record{Type: RecCommit, TxnID: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- l.WaitDurable(lsn) }()
	select {
	case <-b.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("leader never reached the held Sync")
	}
	return done
}

// awaitQueued waits until n committers are queued for the next round.
func awaitQueued(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		l.gcMu.Lock()
		got := 0
		if r := l.gcNext; r != nil && !r.led {
			got = r.n
		}
		l.gcMu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("waiter queue never reached %d", n)
}

func awaitOutcome(t *testing.T, done <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(2 * time.Second):
		t.Fatalf("%s still blocked", what)
		return nil
	}
}

// TestGroupCommitCoalesces: committers that arrive while one sync is in
// flight share the next one.
func TestGroupCommitCoalesces(t *testing.T) {
	b := newGateBackend()
	l, err := NewLog(b)
	if err != nil {
		t.Fatal(err)
	}

	first := holdOneCommitter(t, l, b)
	const group = 8
	var wg sync.WaitGroup
	for w := 0; w < group; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := Record{Type: RecIMRSInsert, TxnID: uint64(w), After: make([]byte, 64)}
			lsn, err := l.Append(&rec)
			if err != nil {
				t.Error(err)
				return
			}
			if err := l.WaitDurable(lsn); err != nil {
				t.Error(err)
				return
			}
			if l.FlushedLSN() < lsn {
				t.Error("WaitDurable returned before LSN became durable")
			}
		}(w)
	}
	awaitQueued(t, l, group)
	b.release()
	if err := awaitOutcome(t, first, "held committer"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	total := int64(group + 1)
	if got := l.Stats().GroupedCommits.Load(); got != total {
		t.Fatalf("grouped commits = %d, want %d", got, total)
	}
	if syncs := b.syncs.Load(); syncs != 2 {
		t.Fatalf("%d syncs for one held commit plus a group of %d, want 2", syncs, group)
	}
	if mean := l.GroupSizeHist().Mean(); mean <= 1.0 {
		t.Fatalf("mean group size %.2f, want > 1", mean)
	}
	if l.CommitWaitHist().Count() != total {
		t.Fatalf("commit-wait samples = %d, want %d", l.CommitWaitHist().Count(), total)
	}

	// Every record survived, in order.
	r, err := l.NewReader(0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if int64(n) != total {
		t.Fatalf("read %d records, want %d", n, total)
	}
}

// TestGroupCommitCloseCompletesParkedCommitter: a committer parked behind
// an in-flight round when Close arrives is flushed, not dropped.
func TestGroupCommitCloseCompletesParkedCommitter(t *testing.T) {
	b := newGateBackend()
	l, err := NewLog(b)
	if err != nil {
		t.Fatal(err)
	}
	first := holdOneCommitter(t, l, b)
	lsn, _ := l.Append(&Record{Type: RecCommit, TxnID: 2})
	done := make(chan error, 1)
	go func() { done <- l.WaitDurable(lsn) }()
	awaitQueued(t, l, 1)
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	b.release()
	for _, d := range []<-chan error{first, done} {
		if err := awaitOutcome(t, d, "committer beside Close"); err != nil {
			t.Fatalf("committer completed with error: %v", err)
		}
	}
	if err := awaitOutcome(t, closed, "Close"); err != nil {
		t.Fatal(err)
	}
	if l.FlushedLSN() < lsn {
		t.Fatal("the parked committer's LSN is not durable")
	}
	l.gcMu.Lock()
	defer l.gcMu.Unlock()
	if l.gcBusy != nil || l.gcNext != nil {
		t.Fatal("a round is left behind")
	}
}

// closeCheckBackend fails a Sync that returns after the backend was
// closed, as a closed file would.
type closeCheckBackend struct {
	*gateBackend
	closed atomic.Bool
}

func (b *closeCheckBackend) Sync() error {
	err := b.gateBackend.Sync()
	if b.closed.Load() {
		return errors.New("sync of a closed backend")
	}
	return err
}

func (b *closeCheckBackend) Close() error {
	b.closed.Store(true)
	return nil
}

// TestCloseWaitsForRoundInFlight: Close does not close the backend under
// a leader still inside its Sync, even when Close's own flush has
// already made everything durable.
func TestCloseWaitsForRoundInFlight(t *testing.T) {
	b := &closeCheckBackend{gateBackend: newGateBackend()}
	l, err := NewLog(b)
	if err != nil {
		t.Fatal(err)
	}
	led := holdOneCommitter(t, l, b.gateBackend)
	// Later syncs pass; the leader stays held.
	b.mu.Lock()
	leader := b.gate
	b.gate = nil
	b.mu.Unlock()
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with a round in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(leader)
	if err := awaitOutcome(t, led, "leader"); err != nil {
		t.Fatalf("leader: %v", err)
	}
	if err := awaitOutcome(t, closed, "Close"); err != nil {
		t.Fatal(err)
	}
	if err := l.Poisoned(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupCommitDeliversFlushErrors(t *testing.T) {
	fb := &FaultyBackend{Inner: NewMemBackend(), FailSyncsAfter: 1}
	l, err := NewLog(fb)
	if err != nil {
		t.Fatal(err)
	}
	lsn, _ := l.Append(&Record{Type: RecCommit, TxnID: 1})
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatalf("first sync should succeed: %v", err)
	}
	lsn2, _ := l.Append(&Record{Type: RecCommit, TxnID: 2})
	if err := l.WaitDurable(lsn2); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected sync error, got %v", err)
	}
}

func TestAppendStatsCountOnlySuccesses(t *testing.T) {
	l, err := NewLog(NewMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	big := Record{Type: RecHeapInsert, After: make([]byte, 0x10000000)} // over the frame limit
	if _, err := l.Append(&big); err == nil {
		t.Fatal("oversized record accepted")
	}
	if a, by := l.Stats().Appends.Load(), l.Stats().Bytes.Load(); a != 0 || by != 0 {
		t.Fatalf("failed append counted: appends=%d bytes=%d", a, by)
	}
	rec := Record{Type: RecCommit, TxnID: 1}
	if _, err := l.Append(&rec); err != nil {
		t.Fatal(err)
	}
	if a := l.Stats().Appends.Load(); a != 1 {
		t.Fatalf("appends = %d, want 1", a)
	}
	wantBytes := int64(len(rec.encode(nil)) + frameHeader)
	if by := l.Stats().Bytes.Load(); by != wantBytes {
		t.Fatalf("bytes = %d, want %d", by, wantBytes)
	}
}

func TestFlushBackendFailureKeepsStatsAndRetries(t *testing.T) {
	fb := &FaultyBackend{Inner: NewMemBackend(), FailAppendsAfter: 1}
	l, err := NewLog(fb)
	if err != nil {
		t.Fatal(err)
	}
	lsn, _ := l.Append(&Record{Type: RecCommit, TxnID: 1})
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
	lsn2, _ := l.Append(&Record{Type: RecCommit, TxnID: 2})
	if err := l.Flush(lsn2); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected append error, got %v", err)
	}
	if f := l.Stats().Flushes.Load(); f != 1 {
		t.Fatalf("failed flush counted: flushes = %d, want 1", f)
	}
	if l.FlushedLSN() < lsn || l.FlushedLSN() >= lsn2 {
		t.Fatalf("flushed LSN %d out of range [%d,%d)", l.FlushedLSN(), lsn, lsn2)
	}
	// The record stayed buffered: clearing the fault lets a retry land it.
	fb.FailAppendsAfter = 0
	if err := l.Flush(lsn2); err != nil {
		t.Fatal(err)
	}
	if f := l.Stats().Flushes.Load(); f != 2 {
		t.Fatalf("flushes = %d, want 2", f)
	}
}

func TestFlushSkipsRedundantSync(t *testing.T) {
	b := newGateBackend()
	l, err := NewLog(b)
	if err != nil {
		t.Fatal(err)
	}
	lsn, _ := l.Append(&Record{Type: RecCommit, TxnID: 1})
	if err := l.Flush(lsn); err != nil {
		t.Fatal(err)
	}
	// Covered LSN: no buffer swap, no sync.
	if err := l.Flush(lsn); err != nil {
		t.Fatal(err)
	}
	if s := b.syncs.Load(); s != 1 {
		t.Fatalf("redundant flush synced: %d syncs, want 1", s)
	}
}

func TestTornTailErrorIsErrTorn(t *testing.T) {
	b := NewMemBackend()
	l, _ := NewLog(b)
	if _, err := l.Append(&Record{Type: RecCommit, TxnID: 1}); err != nil {
		t.Fatal(err)
	}
	_ = l.FlushAll()
	b.Append([]byte{0xEE, 0x01, 0x02}) // torn frame header
	r, err := l.NewReader(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatalf("first record should read fine: %v", err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrTorn) {
		t.Fatalf("torn tail should wrap ErrTorn, got %v", err)
	}
}

func TestFaultyBackendTornAppend(t *testing.T) {
	inner := NewMemBackend()
	fb := &FaultyBackend{Inner: inner, FailAppendsAfter: 1, TornBytes: 5}
	l, err := NewLog(fb)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Type: RecHeapInsert, TxnID: 1, RID: rid.NewPhysical(1, 2, 3), After: []byte("first")}
	if _, err := l.Append(&rec); err != nil {
		t.Fatal(err)
	}
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Type: RecCommit, TxnID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.FlushAll(); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected failure, got %v", err)
	}
	// The medium holds the first frame plus 5 torn bytes; a reader over
	// it sees one record then a torn tail.
	l2, err := NewLog(inner)
	if err != nil {
		t.Fatal(err)
	}
	r, err := l2.NewReader(0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next()
	if err != nil || got.TxnID != 1 || string(got.After) != "first" {
		t.Fatalf("first record: %+v, %v", got, err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrTorn) {
		t.Fatalf("want ErrTorn at torn tail, got %v", err)
	}
}

// slowBackend is a MemBackend on a slow device: every Sync announces
// itself on entered, then sleeps for the duration held in sleep.
type slowBackend struct {
	*MemBackend
	sleep   atomic.Int64 // ns
	syncs   atomic.Int64
	entered chan struct{}
}

func newSlowBackend(d time.Duration) *slowBackend {
	b := &slowBackend{MemBackend: NewMemBackend(), entered: make(chan struct{}, 1)}
	b.sleep.Store(int64(d))
	return b
}

func (b *slowBackend) Sync() error {
	b.syncs.Add(1)
	select {
	case b.entered <- struct{}{}:
	default:
	}
	time.Sleep(time.Duration(b.sleep.Load()))
	return b.MemBackend.Sync()
}

// commitAsync appends one record for a committer and waits for it to
// become durable in the background. The committer is counted in peers
// from before its append until its wait returns, as the engine counts
// its transactions.
func commitAsync(t *testing.T, l *Log, peers *Peers, txn uint64) <-chan error {
	t.Helper()
	peers.Add(1)
	lsn, err := l.Append(&Record{Type: RecCommit, TxnID: txn})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		err := l.WaitDurable(lsn)
		peers.Add(-1)
		done <- err
	}()
	return done
}

// contendedRound puts the log in the state two alternating committers
// leave it in: after one lone commit, committer A's sync is in flight
// and committer X has queued behind it; both syncs take the backend's
// current duration. It returns A's and X's outcome channels; X's round
// is the next one.
func contendedRound(t *testing.T, l *Log, peers *Peers, b *slowBackend) (a, x <-chan error) {
	t.Helper()
	if err := awaitOutcome(t, commitAsync(t, l, peers, 1), "lone commit"); err != nil {
		t.Fatal(err)
	}
	<-b.entered
	a = commitAsync(t, l, peers, 2)
	select {
	case <-b.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("A's sync never started")
	}
	x = commitAsync(t, l, peers, 3)
	awaitQueued(t, l, 1)
	return a, x
}

// awaitLinger waits until a leader has begun holding a round open.
func awaitLinger(t *testing.T, l *Log) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if l.Stats().LingerRounds.Load() > 0 {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatal("no round lingered")
}

// TestGroupCommitLingerGathersPeer: a round whose log is contended holds
// its sync open for a writer in flight, and the two share one sync.
func TestGroupCommitLingerGathersPeer(t *testing.T) {
	b := newSlowBackend(50 * time.Millisecond) // A's sync: X's round may wait as long
	l, err := NewLog(b)
	if err != nil {
		t.Fatal(err)
	}
	peers := new(Peers)
	l.SetPeers(peers)

	peers.Add(1) // writer Y is in flight
	a, x := contendedRound(t, l, peers, b)
	if err := awaitOutcome(t, a, "A"); err != nil {
		t.Fatal(err)
	}
	b.sleep.Store(int64(time.Millisecond))
	awaitLinger(t, l)
	lsn, err := l.Append(&Record{Type: RecCommit, TxnID: 4}) // Y commits
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	peers.Add(-1)
	if err := awaitOutcome(t, x, "X"); err != nil {
		t.Fatal(err)
	}
	if got := b.syncs.Load(); got != 3 {
		t.Fatalf("%d syncs, want 3: the lone commit's, A's, then one for X and Y", got)
	}
	if st := l.Stats(); st.LingerRounds.Load() != 1 || st.LingerGathered.Load() != 1 {
		t.Fatalf("linger rounds %d, gathered %d; want 1, 1", st.LingerRounds.Load(), st.LingerGathered.Load())
	}
}

// TestGroupCommitLoneCommitterNeverWaits: one committer at a time never
// makes its log contended, so no round waits — not even beside an idle
// transaction that stays counted in flight.
func TestGroupCommitLoneCommitterNeverWaits(t *testing.T) {
	b := newSlowBackend(time.Millisecond)
	l, err := NewLog(b)
	if err != nil {
		t.Fatal(err)
	}
	peers := new(Peers)
	l.SetPeers(peers)
	peers.Add(1) // an idle open writer
	const n = 20
	for i := uint64(1); i <= n; i++ {
		if err := awaitOutcome(t, commitAsync(t, l, peers, i), "commit"); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Stats().LingerRounds.Load(); got != 0 {
		t.Fatalf("%d rounds waited for a lone committer", got)
	}
	if got := b.syncs.Load(); got != n {
		t.Fatalf("%d syncs for %d commits", got, n)
	}
}

// TestGroupCommitLingerEndsAtBound: when the writer in flight never
// arrives, the round waits out the previous sync's duration and syncs.
func TestGroupCommitLingerEndsAtBound(t *testing.T) {
	const bound = 20 * time.Millisecond
	b := newSlowBackend(bound)
	l, err := NewLog(b)
	if err != nil {
		t.Fatal(err)
	}
	peers := new(Peers)
	l.SetPeers(peers)
	peers.Add(1) // a writer that never commits
	a, x := contendedRound(t, l, peers, b)
	if err := awaitOutcome(t, a, "A"); err != nil {
		t.Fatal(err)
	}
	b.sleep.Store(int64(time.Millisecond))
	if err := awaitOutcome(t, x, "X"); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.LingerRounds.Load() != 1 || st.LingerGathered.Load() != 0 {
		t.Fatalf("linger rounds %d, gathered %d; want 1, 0", st.LingerRounds.Load(), st.LingerGathered.Load())
	}
	// The wait is counted from a little before it begins; a loaded host
	// may fire the timer late.
	if w := time.Duration(st.LingerNs.Load()); w < bound/2 || w > bound+15*time.Millisecond {
		t.Fatalf("round waited %v, want about the previous sync (%v)", w, bound)
	}
}

// TestGroupCommitAbortDuringLinger: AbortGroupCommit ends a lingering
// round at once and fails its committers with ErrHalted without
// touching the backend.
func TestGroupCommitAbortDuringLinger(t *testing.T) {
	const bound = 200 * time.Millisecond
	b := newSlowBackend(bound)
	l, err := NewLog(b)
	if err != nil {
		t.Fatal(err)
	}
	peers := new(Peers)
	l.SetPeers(peers)
	peers.Add(1) // a writer that never commits
	a, x := contendedRound(t, l, peers, b)
	if err := awaitOutcome(t, a, "A"); err != nil {
		t.Fatal(err)
	}
	awaitLinger(t, l)
	size, _ := b.Size()
	start := time.Now()
	l.AbortGroupCommit()
	if took := time.Since(start); took > bound/2 {
		t.Fatalf("AbortGroupCommit took %v during a wait bounded by %v", took, bound)
	}
	if err := awaitOutcome(t, x, "X"); !errors.Is(err, ErrHalted) {
		t.Fatalf("lingering committer got %v, want ErrHalted", err)
	}
	if got, _ := b.Size(); got != size || b.syncs.Load() != 2 {
		t.Fatalf("backend touched after the abort: size %d -> %d, %d syncs", size, got, b.syncs.Load())
	}
}

// TestGroupCommitMemBackendNeverParks: a log whose syncs cost nothing
// has no bound left by the time a round could wait, so however
// contended it is and whoever is in flight, no round waits.
func TestGroupCommitMemBackendNeverParks(t *testing.T) {
	l, err := NewLog(NewMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	peers := new(Peers)
	l.SetPeers(peers)
	peers.Add(1) // an idle open writer
	const writers, each = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				peers.Add(1)
				lsn, err := l.Append(&Record{Type: RecCommit, TxnID: uint64(w*each + i)})
				if err == nil {
					err = l.WaitDurable(lsn)
				}
				peers.Add(-1)
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if got := st.LingerRounds.Load(); got != 0 {
		t.Fatalf("%d rounds waited on a MemBackend log", got)
	}
	t.Logf("%d commits in %d rounds", st.GroupedCommits.Load(), st.GroupFlushes.Load())
}
