package core

import (
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/row"
	"repro/internal/wal"
)

// slowSync is a log backend on a slow device: every Sync takes
// syncCost longer, and its duration is recorded.
type slowSync struct {
	wal.Backend
	mu    sync.Mutex
	syncs []time.Duration
}

const syncCost = time.Millisecond

func (b *slowSync) Sync() error {
	start := time.Now()
	time.Sleep(syncCost)
	err := b.Backend.Sync()
	b.mu.Lock()
	b.syncs = append(b.syncs, time.Since(start))
	b.mu.Unlock()
	return err
}

// medianSync is the median duration of the syncs recorded so far.
func (b *slowSync) medianSync() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return median(b.syncs)
}

func median(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	return s[len(s)/2]
}

// openSlowSync opens an engine whose two logs are files on a slow-sync
// device, with the "hot" (IMRS) and "cold" (page store) tables. It
// returns the sysimrslogs backend.
func openSlowSync(t *testing.T) (*Engine, *slowSync) {
	t.Helper()
	dir := t.TempDir()
	open := func(name string) *slowSync {
		fb, err := wal.OpenFileBackend(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return &slowSync{Backend: fb}
	}
	ims := open("sysimrslogs.log")
	cfg := DefaultConfig()
	cfg.IMRSCacheBytes = 8 << 20
	cfg.BufferPoolPages = 256
	cfg.PackInterval = time.Hour // keep pack out of the logs
	cfg.SysLogBackend = open("syslogs.log")
	cfg.IMRSLogBackend = ims
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	createHotCold(t, e)
	return e, ims
}

// peerRun is what two closed-loop writers measured on one log.
type peerRun struct {
	commits, syncs int64
	commitP50      time.Duration // median Commit call
}

func (r peerRun) syncsPerCommit() float64 { return float64(r.syncs) / float64(r.commits) }

// runPeerWriters runs two closed-loop writers against the "hot" table,
// each transaction one update of the writer's own row plus one insert,
// like the commit_durable workload, and counts the syncs sysimrslogs
// made meanwhile. Keys from base on are the writers' own.
func runPeerWriters(t *testing.T, e *Engine, base int64) peerRun {
	t.Helper()
	const table, writers, perWriter = "hot", 2, 150
	l := e.imrslog
	for w := int64(0); w < writers; w++ {
		tx := e.Begin()
		if err := tx.Insert(table, itemRow(base+w, "w", 0)); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
	var next atomic.Int64
	next.Store(base + writers)
	lat := make([][]time.Duration, writers)
	syncs0 := l.Stats().Flushes.Load()
	var wg sync.WaitGroup
	for w := int64(0); w < writers; w++ {
		wg.Add(1)
		go func(w int64) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tx := e.Begin()
				if _, err := tx.Update(table, pk(base+w), func(r row.Row) (row.Row, error) {
					r[2] = row.Int64(int64(i))
					return r, nil
				}); err != nil {
					tx.Abort()
					t.Error(err)
					return
				}
				if err := tx.Insert(table, itemRow(next.Add(1), "l", w)); err != nil {
					tx.Abort()
					t.Error(err)
					return
				}
				start := time.Now()
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				lat[w] = append(lat[w], time.Since(start))
			}
		}(w)
	}
	wg.Wait()
	return peerRun{
		commits:   writers * perWriter,
		syncs:     l.Stats().Flushes.Load() - syncs0,
		commitP50: median(slices.Concat(lat...)),
	}
}

// assertGathersPeers: two writers that would otherwise alternate — each
// arriving while the other's sync is in flight — share their syncs.
func assertGathersPeers(t *testing.T, e *Engine, base int64) {
	t.Helper()
	r := runPeerWriters(t, e, base)
	st := e.imrslog.Stats()
	t.Logf("%d commits, %d syncs (%.2f per commit), commit p50 %v; linger rounds %d, gathered %d",
		r.commits, r.syncs, r.syncsPerCommit(), r.commitP50, st.LingerRounds.Load(), st.LingerGathered.Load())
	if got := r.syncsPerCommit(); got > 0.6 {
		t.Fatalf("%.2f syncs per commit for two closed-loop writers, want <= 0.6", got)
	}
}

// TestGroupCommitGathersPeers: on a slow-sync device, two closed-loop
// writers share a sync instead of alternating.
func TestGroupCommitGathersPeers(t *testing.T) {
	e, _ := openSlowSync(t)
	assertGathersPeers(t, e, 1_000_000)
}

// background runs fn in a goroutine until the returned stop is called,
// which waits for it to return; stop also runs at cleanup, before the
// engine closes.
func background(t *testing.T, fn func(stop <-chan struct{})) (stop func()) {
	ch := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn(ch)
	}()
	var once sync.Once
	stop = func() { once.Do(func() { close(ch); <-done }) }
	t.Cleanup(stop)
	return stop
}

// assertNoBoundWait runs the two writers beside something that must not
// count as a peer in flight: their commits must not each wait out a
// whole bound (a sync) on top of their own sync.
func assertNoBoundWait(t *testing.T, e *Engine, ims *slowSync) {
	t.Helper()
	r := runPeerWriters(t, e, 1_000_000)
	syncP50 := ims.medianSync()
	st := e.imrslog.Stats()
	t.Logf("commit p50 %v, sync p50 %v, %.2f syncs per commit; %d rounds waited %v, %d gathered a committer",
		r.commitP50, syncP50, r.syncsPerCommit(), st.LingerRounds.Load(), time.Duration(st.LingerNs.Load()), st.LingerGathered.Load())
	if r.commitP50 >= syncP50*3/2 {
		t.Fatalf("commit p50 %v >= 1.5 × sync p50 %v", r.commitP50, syncP50)
	}
}

// TestGroupCommitBesideIdleWriter: an open write transaction left idle
// stays counted for the whole run; once one wait for it has expired it
// is presumed idle, and the writers' commits do not each wait out a
// bound.
func TestGroupCommitBesideIdleWriter(t *testing.T) {
	e, ims := openSlowSync(t)
	idle := e.Begin()
	t.Cleanup(idle.Abort) // before the engine closes
	if err := idle.Insert("hot", itemRow(1, "idle", 0)); err != nil {
		t.Fatal(err)
	}
	assertNoBoundWait(t, e, ims)
}

// TestGroupCommitBesideLongScan: a read-only transaction in the middle
// of a table scan for the whole run is never a peer.
func TestGroupCommitBesideLongScan(t *testing.T) {
	e, ims := openSlowSync(t)
	tx := e.Begin()
	for i := int64(1); i <= 200; i++ {
		if err := tx.Insert("hot", itemRow(i, "s", i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	scanning := make(chan struct{})
	stop := background(t, func(stop <-chan struct{}) {
		scan := e.Begin()
		defer scan.Abort()
		first := true
		// The scan parks on its first row until the writers are done: it
		// spans the run without taking the cores from them.
		if err := scan.ScanTable("hot", func(row.Row) bool {
			if first {
				first = false
				close(scanning)
				<-stop
			}
			return true
		}); err != nil {
			t.Error(err)
		}
	})
	defer stop()
	<-scanning
	assertNoBoundWait(t, e, ims)
}

// TestGroupCommitBesideLockWaiter: a writer that has buffered a record
// and then blocks on a committer's row lock is not coming to the log
// until that committer is done, so no round waits for it.
func TestGroupCommitBesideLockWaiter(t *testing.T) {
	e, ims := openSlowSync(t)
	const contested = 1_000_000 // writer 0's row (runPeerWriters)
	stop := background(t, func(stop <-chan struct{}) {
		for k := int64(1); ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			tx := e.Begin()
			if err := tx.Insert("hot", itemRow(k, "waiter", 0)); err != nil {
				tx.Abort()
				t.Error(err)
				return
			}
			// Blocks while writer 0 holds the row through its commit.
			if _, err := tx.Update("hot", pk(contested), func(r row.Row) (row.Row, error) { return r, nil }); err != nil {
				tx.Abort()
				t.Error(err)
				return
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
			// Let writer 0 take the row back: the lock manager is not
			// fair, and a waiter that re-locks at once starves it.
			time.Sleep(syncCost)
		}
	})
	defer stop()
	assertNoBoundWait(t, e, ims)
}

// TestGroupCommitBesidePreparedParticipant: a prepared 2PC participant
// waiting for its decision has appended everything it will append
// before the decision; no round waits for it.
func TestGroupCommitBesidePreparedParticipant(t *testing.T) {
	e, ims := openSlowSync(t)
	p := e.Begin()
	t.Cleanup(p.AbortPrepared) // before the engine closes
	if err := p.Insert("hot", itemRow(1, "prepared", 0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Prepare(7, 0); err != nil {
		t.Fatal(err)
	}
	assertNoBoundWait(t, e, ims)
}
