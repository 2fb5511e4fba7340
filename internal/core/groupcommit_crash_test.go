package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/wal"
)

// createHotCold creates two tables and pins "hot" into the IMRS and
// "cold" out of it, so a transaction inserting into both is a mixed
// transaction: redo-only records + contingent IMRSCommit (Aux=1) in
// sysimrslogs, heap records + RecCommit in syslogs.
func createHotCold(t *testing.T, e *Engine) {
	t.Helper()
	for _, name := range []string{"hot", "cold"} {
		if _, err := e.CreateTable(name, testSchema(), []string{"id"}, catalog.PartitionSpec{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.PinTable("hot", true); err != nil {
		t.Fatal(err)
	}
	if err := e.PinTable("cold", false); err != nil {
		t.Fatal(err)
	}
}

// commitMixed runs workers*perWorker concurrent mixed transactions
// through the group-commit pipeline and returns the set of keys whose
// Commit was acknowledged.
func commitMixed(t *testing.T, e *Engine, workers, perWorker int) map[int64]bool {
	t.Helper()
	var mu sync.Mutex
	acked := make(map[int64]bool)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := int64(w*1000 + i + 1)
				tx := e.Begin()
				if err := tx.Insert("hot", itemRow(key, "h", key)); err != nil {
					tx.Abort()
					continue
				}
				if err := tx.Insert("cold", itemRow(key, "c", key)); err != nil {
					tx.Abort()
					continue
				}
				if err := tx.Commit(); err == nil {
					mu.Lock()
					acked[key] = true
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return acked
}

// checkPairing asserts the contingent-commit rule on a recovered
// engine: for every attempted key, the hot (IMRS) row and the cold
// (page-store) row are either both present or both absent. It returns
// the set of recovered keys.
func checkPairing(t *testing.T, e *Engine, workers, perWorker int) map[int64]bool {
	t.Helper()
	present := make(map[int64]bool)
	tx := e.Begin()
	defer tx.Abort()
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			key := int64(w*1000 + i + 1)
			_, hotOK, err := tx.Get("hot", pk(key))
			if err != nil {
				t.Fatal(err)
			}
			_, coldOK, err := tx.Get("cold", pk(key))
			if err != nil {
				t.Fatal(err)
			}
			if hotOK != coldOK {
				t.Fatalf("key %d recovered torn across stores: hot=%v cold=%v", key, hotOK, coldOK)
			}
			if hotOK {
				present[key] = true
			}
		}
	}
	return present
}

func crashConfig(st *sharedStorage) Config {
	return st.config(func(c *Config) {
		c.PackInterval = time.Hour // keep pack out of the log
	})
}

// TestConcurrentGroupCommitTornSyslogTail crashes with a torn final
// frame in syslogs: recovery must stop at the tear, discard the
// affected transactions' page-store halves, and — via the contingent
// Aux=1 rule — discard their IMRS halves too, even though those are
// fully intact in sysimrslogs. The inputs are every kind of mixed
// transaction the commit pipeline carries: concurrent user commits, a
// heap pack transaction and a freeze transaction (whose lost halves
// would otherwise delete rows from the IMRS that never reached the
// page store).
func TestConcurrentGroupCommitTornSyslogTail(t *testing.T) {
	const workers, perWorker = 8, 40
	const packed = 20
	// packOnce commits rows that go cold, packs them in one pack
	// transaction, and tears syslogs in the middle of that transaction's
	// records: its RecCommit, the last of them, is lost.
	packOnce := func(t *testing.T, e *Engine, st *sharedStorage) int64 {
		createItems(t, e)
		queueColdItems(t, e, packed)
		if err := e.syslog.FlushAll(); err != nil {
			t.Fatal(err)
		}
		before, _ := st.sys.Size()
		e.Packer().Step()
		if n := e.Packer().RowsPacked.Load(); n != packed {
			t.Fatalf("packed %d rows, want %d", n, packed)
		}
		after, _ := st.sys.Size()
		return before + (after-before)/2
	}
	// Both halves of the pack dropped: every row is still an IMRS row.
	packCheck := func(t *testing.T, e2 *Engine) {
		if n := e2.store.Part(e2.table0(t, "items").cat.ID).Rows.Load(); n != packed {
			t.Fatalf("%d rows in the IMRS after recovery, want %d: the pack's IMRS half was applied without its page-store half", n, packed)
		}
		tx := e2.Begin()
		defer tx.Abort()
		for i := int64(1); i <= packed; i++ {
			if rw, ok, err := tx.Get("items", pk(i)); err != nil || !ok || rw[2].Int() != i {
				t.Fatalf("row %d after recovery: %v ok=%v err=%v", i, rw, ok, err)
			}
		}
	}
	for _, tc := range []struct {
		name     string
		heapPack bool
		run      func(*testing.T, *Engine, *sharedStorage) int64 // returns the syslogs length that survives
		check    func(*testing.T, *Engine)
	}{
		{name: "user-commits",
			run: func(t *testing.T, e *Engine, st *sharedStorage) int64 {
				acked := commitMixed(t, e, workers, perWorker)
				if len(acked) != workers*perWorker {
					t.Fatalf("only %d/%d commits acknowledged", len(acked), workers*perWorker)
				}
				if grouped := e.Stats().IMRSLog.GroupedCommits; grouped == 0 {
					t.Fatal("group-commit pipeline was not exercised")
				}
				sysLen, _ := st.sys.Size()
				return sysLen * 6 / 10
			},
			check: func(t *testing.T, e2 *Engine) {
				recovered := checkPairing(t, e2, workers, perWorker)
				if len(recovered) == 0 {
					t.Fatal("truncated log recovered nothing; expected the pre-tear prefix")
				}
				if len(recovered) >= workers*perWorker {
					t.Fatalf("recovered %d pairs from a log missing 40%% of its tail (committed %d)",
						len(recovered), workers*perWorker)
				}
			}},
		{name: "heap-pack", heapPack: true, run: packOnce, check: packCheck},
		{name: "freeze", run: packOnce, check: packCheck},
	} {
		t.Run(tc.name, func(t *testing.T) {
			config := func(st *sharedStorage) Config {
				cfg := crashConfig(st)
				coldConfig(&cfg)
				cfg.PackThreads = 1
				cfg.DisableColdStore = tc.heapPack
				return cfg
			}
			st := newSharedStorage()
			e, err := Open(config(st))
			if err != nil {
				t.Fatal(err)
			}
			createHotCold(t, e)
			keep := tc.run(t, e, st)
			e.Halt() // crash

			// The crash tore the tail off syslogs mid-frame; sysimrslogs
			// keeps a torn partial frame appended by an in-flight batch
			// write.
			sys := st.sys.Clone()
			sys.Truncate(keep)
			ims := st.ims.Clone()
			if _, err := ims.Append([]byte{0xAB, 0xCD, 0x01}); err != nil {
				t.Fatal(err)
			}

			st2 := &sharedStorage{dev: st.dev, sys: sys, ims: ims}
			e2, err := Open(config(st2))
			if err != nil {
				t.Fatalf("recovery over torn logs failed: %v", err)
			}
			defer e2.Close()
			tc.check(t, e2)
		})
	}
}

// TestTornTailRepairPreservesLaterCommits is the double-crash scenario:
// the first crash leaves torn frames on both log tails; recovery must
// TRUNCATE them (not merely stop reading there), because the reopened
// engine appends new commits at the backend's end — without the
// truncation those records would sit past the garbage, and the second
// recovery would stop at the old tear and silently lose every one of
// them.
func TestTornTailRepairPreservesLaterCommits(t *testing.T) {
	st := newSharedStorage()
	e, err := Open(crashConfig(st))
	if err != nil {
		t.Fatal(err)
	}
	createHotCold(t, e)
	acked := commitMixed(t, e, 1, 20) // keys 1..20
	if len(acked) != 20 {
		t.Fatalf("setup: %d/20 commits acknowledged", len(acked))
	}
	e.Halt() // crash #1

	// Both logs keep a torn partial frame from batch writes in flight.
	sys := st.sys.Clone()
	if _, err := sys.Append([]byte{0xAB, 0xCD, 0x01}); err != nil {
		t.Fatal(err)
	}
	ims := st.ims.Clone()
	if _, err := ims.Append(make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	st2 := &sharedStorage{dev: st.dev, sys: sys, ims: ims}
	e2, err := Open(crashConfig(st2))
	if err != nil {
		t.Fatalf("recovery over torn tails failed: %v", err)
	}
	// New acknowledged commits on the recovered engine.
	for i := int64(101); i <= 120; i++ {
		tx := e2.Begin()
		if err := tx.Insert("hot", itemRow(i, "h", i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert("cold", itemRow(i, "c", i)); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
	e2.Halt() // crash #2

	st3 := &sharedStorage{dev: st2.dev, sys: st2.sys.Clone(), ims: st2.ims.Clone()}
	e3, err := Open(crashConfig(st3))
	if err != nil {
		t.Fatalf("second recovery failed: %v", err)
	}
	defer e3.Close()
	tx := e3.Begin()
	defer tx.Abort()
	for _, keys := range [][2]int64{{1, 20}, {101, 120}} {
		for i := keys[0]; i <= keys[1]; i++ {
			for _, table := range []string{"hot", "cold"} {
				if _, ok, err := tx.Get(table, pk(i)); err != nil || !ok {
					t.Fatalf("acknowledged key %d lost from %q after second crash (ok=%v err=%v)", i, table, ok, err)
				}
			}
		}
	}
}

// TestGroupFlushFailurePoisonsCommitPath: when a group flush fails, its
// committers roll back in memory — but their already-appended frames
// (commit markers included) sit in the log buffer. The log must refuse
// every later append/flush so those frames can never become durable and
// recovery can never replay transactions the live engine reported as
// failed.
func TestGroupFlushFailurePoisonsCommitPath(t *testing.T) {
	st := newSharedStorage()
	faulty := &wal.FaultyBackend{Inner: st.sys, FailSyncsAfter: 8}
	cfg := crashConfig(st)
	cfg.SysLogBackend = faulty
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	createHotCold(t, e)
	failedAt := int64(-1)
	for i := int64(1); i <= 50; i++ {
		tx := e.Begin()
		if err := tx.Insert("cold", itemRow(i, "c", i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			failedAt = i
			break
		}
	}
	if failedAt < 0 {
		t.Fatal("sync fault never fired; fault injection ineffective")
	}
	// Poisoned: the engine went ReadOnly, so later writes are rejected
	// up front with the typed ErrReadOnly carrying the poisoning as its
	// root cause (they could never become durable anyway).
	tx := e.Begin()
	ierr := tx.Insert("cold", itemRow(1000, "c", 1000))
	if !errors.Is(ierr, ErrReadOnly) || !errors.Is(ierr, wal.ErrPoisoned) {
		t.Fatalf("insert after failed group flush: %v, want ErrReadOnly wrapping wal.ErrPoisoned", ierr)
	}
	tx.Abort()
	if st := e.Health().State; st != StateReadOnly {
		t.Fatalf("health state = %v, want read-only", st)
	}
	// And the failed transactions stayed rolled back in the live engine.
	tx2 := e.Begin()
	defer tx2.Abort()
	for _, key := range []int64{failedAt} {
		if _, ok, _ := tx2.Get("cold", pk(key)); ok {
			t.Fatalf("rolled-back row %d visible in the live engine", key)
		}
	}
	e.Halt()
}

// TestHaltDoesNotFlushQueuedCommitters: Halt simulates a crash, so a
// committer still queued in the group-commit pipeline must get an error
// and its records must never reach the backend — durable state stays
// exactly what a crash at that instant would leave. The committer is
// queued either behind a round whose sync is in flight, or in a round
// that is holding its sync open for a writer in flight; Halt must not
// wait that round out.
func TestHaltDoesNotFlushQueuedCommitters(t *testing.T) {
	for _, lingering := range []bool{false, true} {
		name := map[bool]string{false: "behind a sync", true: "in a lingering round"}[lingering]
		t.Run(name, func(t *testing.T) { haltWithQueuedCommitter(t, lingering) })
	}
}

func haltWithQueuedCommitter(t *testing.T, lingering bool) {
	st := newSharedStorage()
	ims := gateOver(st.ims)
	cfg := crashConfig(st)
	cfg.IMRSLogBackend = ims
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	createHotCold(t, e)
	commitHot := func(key int64) <-chan error {
		done := make(chan error, 1)
		go func() {
			tx := e.Begin()
			if err := tx.Insert("hot", itemRow(key, "h", key)); err != nil {
				done <- err
				return
			}
			done <- tx.Commit()
		}()
		return done
	}
	acked := []int64{1}
	var queued <-chan error
	var imsBefore int64
	if !lingering {
		// One flush round is in flight at the crash — its bytes written,
		// its sync pending — and the committer under test queues behind
		// it.
		ims.hold()
		inFlight := commitHot(1)
		ims.awaitHeld(t)
		imsBefore, _ = st.ims.Size()
		queued = commitHot(2)
		time.Sleep(50 * time.Millisecond) // let the committer enqueue
		// Halt waits for the in-flight round, and nothing outside the wal
		// package can see its abort begin: let the round go once it long
		// has.
		time.AfterFunc(250*time.Millisecond, ims.release)
		e.Halt()
		if err := <-inFlight; err != nil {
			t.Fatalf("round already syncing at the crash: %v", err)
		}
	} else {
		// A writer stays in flight, two syncs take hold each, and the
		// committer under test arrives during the second: its round holds
		// its sync open, for up to hold, for the writer that never comes.
		const hold = 400 * time.Millisecond
		idle := e.Begin()
		if err := idle.Insert("hot", itemRow(100, "idle", 0)); err != nil {
			t.Fatal(err)
		}
		defer idle.Abort()
		for key := int64(1); key <= 2; key++ {
			ims.hold()
			c := commitHot(key)
			ims.awaitHeld(t)
			if key == 2 {
				queued = commitHot(3)
			}
			time.Sleep(hold)
			ims.release()
			if err := <-c; err != nil {
				t.Fatal(err)
			}
		}
		acked = append(acked, 2)
		for deadline := time.Now().Add(5 * time.Second); e.imrslog.Stats().LingerRounds.Load() == 0; {
			if time.Now().After(deadline) {
				t.Fatal("the committer's round never waited")
			}
			time.Sleep(time.Millisecond)
		}
		imsBefore, _ = st.ims.Size()
		start := time.Now()
		e.Halt()
		if took := time.Since(start); took > hold/2 {
			t.Fatalf("Halt took %v beside a round waiting at most %v", took, hold)
		}
	}
	if err := <-queued; err == nil {
		t.Fatal("commit acknowledged during a simulated crash")
	}
	if imsAfter, _ := st.ims.Size(); imsAfter != imsBefore {
		t.Fatalf("Halt flushed %d bytes of queued commits; not crash-exact", imsAfter-imsBefore)
	}
	e2, err := Open(crashConfig(st))
	if err != nil {
		t.Fatalf("recovery after Halt failed: %v", err)
	}
	defer e2.Close()
	tx := e2.Begin()
	defer tx.Abort()
	for _, key := range acked {
		if _, ok, _ := tx.Get("hot", pk(key)); !ok {
			t.Fatalf("acknowledged row %d lost", key)
		}
	}
	if _, ok, _ := tx.Get("hot", pk(acked[len(acked)-1]+1)); ok {
		t.Fatal("unacknowledged row survived the simulated crash")
	}
}

// TestConcurrentGroupCommitBackendKilledMidBatch kills the sysimrslogs
// backend while committers are in flight: the batch in progress is torn
// on the medium, its waiters get errors and roll back, and recovery
// restores exactly the acknowledged transactions.
func TestConcurrentGroupCommitBackendKilledMidBatch(t *testing.T) {
	const workers, perWorker = 8, 40
	st := newSharedStorage()
	faulty := &wal.FaultyBackend{Inner: st.ims, FailAppendsAfter: 20, TornBytes: 11}
	cfg := crashConfig(st)
	cfg.IMRSLogBackend = faulty
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	createHotCold(t, e)
	acked := commitMixed(t, e, workers, perWorker)
	if len(acked) == 0 {
		t.Fatal("no commit survived before the backend died")
	}
	if len(acked) == workers*perWorker {
		t.Fatal("backend kill did not fail any commit; fault injection ineffective")
	}
	e.Halt() // crash

	st2 := &sharedStorage{dev: st.dev, sys: st.sys.Clone(), ims: st.ims.Clone()}
	e2, err := Open(crashConfig(st2))
	if err != nil {
		t.Fatalf("recovery after backend kill failed: %v", err)
	}
	defer e2.Close()

	recovered := checkPairing(t, e2, workers, perWorker)
	for key := range acked {
		if !recovered[key] {
			t.Fatalf("acknowledged key %d lost in recovery", key)
		}
	}
	for key := range recovered {
		if !acked[key] {
			t.Fatalf("unacknowledged key %d resurrected by recovery", key)
		}
	}
}
