package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/storage/disk"
	"repro/internal/wal"
)

// healthConfig keeps background loops out of the way and makes retry
// backoff instantaneous.
func healthConfig(st *sharedStorage) Config {
	return st.config(func(c *Config) {
		c.PackInterval = time.Hour
		c.RetrySleep = func(time.Duration) {}
	})
}

// The acceptance-criteria regression test: a poisoned-WAL engine keeps
// answering point reads — from the IMRS and from the page store — while
// rejecting writes with the typed ErrReadOnly, and both Halt and Close
// report the root cause.
func TestReadOnlyEngineServesPointReads(t *testing.T) {
	st := newSharedStorage()
	faulty := &wal.FaultyBackend{Inner: st.sys}
	cfg := healthConfig(st)
	cfg.SysLogBackend = faulty
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	createItems(t, e)

	// Rows 1..5 into the page store (pinned out of the IMRS), rows
	// 11..15 into the IMRS, all committed while the WAL is healthy.
	if err := e.PinTable("items", false); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		tx := e.Begin()
		if err := tx.Insert("items", itemRow(i, "page", i)); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
	if err := e.PinTable("items", true); err != nil {
		t.Fatal(err)
	}
	for i := int64(11); i <= 15; i++ {
		tx := e.Begin()
		if err := tx.Insert("items", itemRow(i, "imrs", i)); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}

	// Kill the syslog device; the next page-store commit's group flush
	// fails hard, poisons the WAL, and flips the engine read-only. (The
	// table is pinned back out so the write actually routes to the page
	// store and therefore to syslogs — IMRS writes log to sysimrslogs.)
	if err := e.PinTable("items", false); err != nil {
		t.Fatal(err)
	}
	faulty.Kill()
	var failedKey int64 = -1
	for i := int64(100); i < 160; i++ {
		tx := e.Begin()
		if err := tx.Insert("items", itemRow(i, "x", i)); err != nil {
			if errors.Is(err, ErrReadOnly) {
				tx.Abort()
				break
			}
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			failedKey = i
			break
		}
	}
	if failedKey < 0 {
		t.Fatal("injected device death never failed a commit")
	}
	if got := e.Health().State; got != StateReadOnly {
		t.Fatalf("health state = %v, want read-only", got)
	}
	if e.Health().ReadOnlyCause == "" {
		t.Fatal("read-only cause missing from health snapshot")
	}

	// Point reads still work: IMRS rows and page-store rows.
	tx := e.Begin()
	for _, key := range []int64{1, 3, 5, 11, 13, 15} {
		if _, ok, err := tx.Get("items", pk(key)); err != nil || !ok {
			t.Fatalf("point read of %d on read-only engine: ok=%v err=%v", key, ok, err)
		}
	}
	// The failed commit's row must never be served.
	if _, ok, _ := tx.Get("items", pk(failedKey)); ok {
		t.Fatalf("uncommitted row %d served by read-only engine", failedKey)
	}
	tx.Abort()

	// Writes are rejected with the typed error carrying the root cause.
	tx2 := e.Begin()
	werr := tx2.Insert("items", itemRow(999, "nope", 0))
	tx2.Abort()
	if !errors.Is(werr, ErrReadOnly) || !errors.Is(werr, wal.ErrPoisoned) {
		t.Fatalf("write on read-only engine: %v, want ErrReadOnly wrapping wal.ErrPoisoned", werr)
	}
	var roErr *ReadOnlyError
	if !errors.As(werr, &roErr) || roErr.Cause == nil {
		t.Fatalf("write rejection %v does not carry a typed root cause", werr)
	}

	// Close aggregates the read-only cause instead of pretending a clean
	// shutdown (and still closes everything best-effort).
	cerr := e.Close()
	if !errors.Is(cerr, ErrReadOnly) || !errors.Is(cerr, wal.ErrPoisoned) {
		t.Fatalf("Close on read-only engine: %v, want ErrReadOnly wrapping wal.ErrPoisoned", cerr)
	}
}

// Halt on a poisoned engine reports the sticky cause; a healthy halt
// stays silent.
func TestHaltReportsReadOnlyCause(t *testing.T) {
	st := newSharedStorage()
	e, err := Open(healthConfig(st))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Halt(); err != nil {
		t.Fatalf("healthy Halt: %v", err)
	}

	st2 := newSharedStorage()
	faulty := &wal.FaultyBackend{Inner: st2.sys}
	cfg := healthConfig(st2)
	cfg.SysLogBackend = faulty
	e2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	createItems(t, e2)
	if err := e2.PinTable("items", false); err != nil { // route writes to syslogs
		t.Fatal(err)
	}
	faulty.Kill()
	for i := int64(1); i < 60; i++ {
		tx := e2.Begin()
		if err := tx.Insert("items", itemRow(i, "x", i)); err != nil {
			break
		}
		if err := tx.Commit(); err != nil {
			break
		}
	}
	if got := e2.Health().State; got != StateReadOnly {
		t.Fatalf("health state = %v, want read-only", got)
	}
	if herr := e2.Halt(); !errors.Is(herr, ErrReadOnly) {
		t.Fatalf("Halt on read-only engine: %v, want ErrReadOnly", herr)
	}
}

// A checkpoint-failure streak degrades the engine; the next successful
// checkpoint heals it. Transitions are recorded with causes.
func TestCheckpointStreakDegradesAndHeals(t *testing.T) {
	st := newSharedStorage()
	faulty := &wal.FaultyBackend{Inner: st.sys}
	cfg := healthConfig(st)
	cfg.SysLogBackend = faulty
	cfg.DisableRetry = true // surface each injected failure exactly once
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Halt()
	createItems(t, e)

	faulty.AddTransientAppendFaults(ckptFailThreshold)
	for i := 0; i < ckptFailThreshold; i++ {
		if err := e.checkpoint(); err == nil {
			t.Fatalf("checkpoint %d should have failed", i)
		}
	}
	h := e.Health()
	if h.State != StateDegraded {
		t.Fatalf("after %d checkpoint failures state = %v, want degraded", ckptFailThreshold, h.State)
	}
	if len(h.DegradedCauses) != 1 || h.DegradedCauses[0] != "checkpoint-failures" {
		t.Fatalf("degraded causes = %v", h.DegradedCauses)
	}

	if err := e.checkpoint(); err != nil {
		t.Fatalf("healed checkpoint: %v", err)
	}
	h = e.Health()
	if h.State != StateHealthy || len(h.DegradedCauses) != 0 {
		t.Fatalf("after successful checkpoint: state=%v causes=%v", h.State, h.DegradedCauses)
	}
	if len(h.Transitions) < 2 {
		t.Fatalf("transitions = %+v, want degrade + heal recorded", h.Transitions)
	}
	last := h.Transitions[len(h.Transitions)-1]
	if last.From != StateDegraded || last.To != StateHealthy || last.At.IsZero() {
		t.Fatalf("last transition = %+v", last)
	}
}

// Degraded routes new inserts to the page store even where the ILM
// per-op state would admit them, and reverts on heal.
func TestDegradedRoutesInsertsToPageStore(t *testing.T) {
	st := newSharedStorage()
	e, err := Open(healthConfig(st))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Halt()
	createItems(t, e)
	if err := e.PinTable("items", true); err != nil { // would always admit
		t.Fatal(err)
	}

	e.health.setCause(causeDeviceFaults, true, "test degradation")
	tx := e.Begin()
	if err := tx.Insert("items", itemRow(1, "degraded", 1)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if n := e.store.Rows(); n != 0 {
		t.Fatalf("degraded insert landed in the IMRS (%d rows), want page store", n)
	}
	tx = e.Begin()
	if _, ok, err := tx.Get("items", pk(1)); err != nil || !ok {
		t.Fatalf("degraded insert unreadable: ok=%v err=%v", ok, err)
	}
	tx.Abort()

	e.health.setCause(causeDeviceFaults, false, "")
	if got := e.Health().State; got != StateHealthy {
		t.Fatalf("state after heal = %v", got)
	}
	tx = e.Begin()
	if err := tx.Insert("items", itemRow(2, "healthy", 2)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if n := e.store.Rows(); n != 1 {
		t.Fatalf("healthy insert should land in the IMRS, rows=%d", n)
	}
}

// IMRS cache pressure past the reject watermark degrades the engine via
// the packer's overload backstop, and draining the cache heals it.
func TestCachePressureDegradesAndHeals(t *testing.T) {
	st := newSharedStorage()
	cfg := healthConfig(st)
	cfg.IMRSCacheBytes = 64 << 10
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Halt()
	createItems(t, e)
	if err := e.PinTable("items", true); err != nil { // pinned: pack can't drain it
		t.Fatal(err)
	}

	rejectWM := cfg.ILM.AggressiveWatermark() + 0.5*(1-cfg.ILM.AggressiveWatermark())
	var keys []int64
	for i := int64(1); ; i++ {
		used := float64(e.store.Allocator().Used())
		if used >= rejectWM*float64(e.store.Allocator().Capacity()) {
			break
		}
		tx := e.Begin()
		if err := tx.Insert("items", itemRow(i, "fill-the-cache-with-rows", i)); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
		keys = append(keys, i)
	}

	e.packer.Step()
	h := e.Health()
	if h.State != StateDegraded {
		t.Fatalf("state after overload step = %v, want degraded", h.State)
	}
	if len(h.DegradedCauses) != 1 || h.DegradedCauses[0] != "imrs-cache-pressure" {
		t.Fatalf("degraded causes = %v", h.DegradedCauses)
	}

	for _, k := range keys {
		tx := e.Begin()
		if _, err := tx.Delete("items", pk(k)); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
	e.gc.Drain()
	e.packer.Step()
	if got := e.Health().State; got != StateHealthy {
		t.Fatalf("state after drain = %v, want healthy (used=%d)", got, e.store.Allocator().Used())
	}
}

// Transient data-device glitches are absorbed by the retry layer during
// a checkpoint; exhaustion degrades the engine and a later retried
// success heals it.
func TestDeviceFaultRetryAndExhaustion(t *testing.T) {
	st := newSharedStorage()
	fd := &disk.FaultyDevice{Inner: st.dev}
	cfg := healthConfig(st)
	cfg.DataDevice = fd
	cfg.Retry = fault.Policy{MaxAttempts: 3}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Halt()
	createItems(t, e)
	if err := e.PinTable("items", false); err != nil { // dirty page-store pages
		t.Fatal(err)
	}
	dirty := func(base int64) {
		for i := base; i < base+3; i++ {
			tx := e.Begin()
			if err := tx.Insert("items", itemRow(i, "p", i)); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, tx)
		}
	}

	// Two glitches: absorbed, checkpoint succeeds, engine stays healthy.
	dirty(1)
	fd.AddTransientWriteFaults(2)
	if err := e.checkpoint(); err != nil {
		t.Fatalf("checkpoint through transient device faults: %v", err)
	}
	h := e.Health()
	if h.State != StateHealthy {
		t.Fatalf("state = %v after absorbed faults", h.State)
	}
	if h.DeviceRetry.Retries == 0 || h.DeviceRetry.Recovered == 0 {
		t.Fatalf("device retry stats = %+v, want retries recorded", h.DeviceRetry)
	}

	// A 3-deep glitch exhausts MaxAttempts=3: checkpoint fails, device
	// cause degrades the engine.
	dirty(11)
	fd.AddTransientWriteFaults(3)
	if err := e.checkpoint(); err == nil {
		t.Fatal("checkpoint should have failed on retry exhaustion")
	}
	h = e.Health()
	if h.State != StateDegraded {
		t.Fatalf("state = %v after exhaustion, want degraded", h.State)
	}
	if h.DeviceRetry.Exhausted == 0 {
		t.Fatalf("device retry stats = %+v, want an exhaustion", h.DeviceRetry)
	}

	// One more glitch that the retry absorbs: the recovered operation
	// clears the device cause.
	dirty(21)
	fd.AddTransientWriteFaults(1)
	if err := e.checkpoint(); err != nil {
		t.Fatalf("healing checkpoint: %v", err)
	}
	if got := e.Health().State; got != StateHealthy {
		t.Fatalf("state = %v after recovered write, want healthy", got)
	}
}

// A pack relocation failure streak degrades the engine; the next
// successful relocation heals it. Driven through the packer hook
// directly (the pack pipeline is exercised end-to-end elsewhere).
func TestPackErrorStreakDegrades(t *testing.T) {
	st := newSharedStorage()
	e, err := Open(healthConfig(st))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Halt()

	for i := int64(1); i <= packFailThreshold; i++ {
		e.packer.OnRelocStreak(i, errors.New("injected reloc failure"))
	}
	if got := e.Health(); got.State != StateDegraded || len(got.DegradedCauses) != 1 || got.DegradedCauses[0] != "pack-errors" {
		t.Fatalf("health after reloc streak = %+v", got)
	}
	e.packer.OnRelocStreak(0, nil)
	if got := e.Health().State; got != StateHealthy {
		t.Fatalf("health after reloc success = %v", got)
	}
}

// A pack transaction commits through the same pipeline as a user
// transaction, so a log failure there must be just as loud: the first
// failed pack commit poisons the WAL and forces ReadOnly with that root
// cause — no user write is needed to discover the dead log, and the
// engine does not sit Degraded("pack-errors") on top of it. Both pack
// homes are inputs: the heap home and the column-segment home.
func TestPackCommitFailurePoisonsToReadOnly(t *testing.T) {
	for _, tc := range []struct {
		name     string
		heapPack bool
	}{{"heap", true}, {"freeze", false}} {
		t.Run(tc.name, func(t *testing.T) {
			st := newSharedStorage()
			faulty := &wal.FaultyBackend{Inner: st.ims}
			cfg := healthConfig(st)
			coldConfig(&cfg)
			cfg.DisableColdStore = tc.heapPack
			cfg.IMRSLogBackend = faulty
			e, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Halt()
			createItems(t, e)
			const n = 20
			queueColdItems(t, e, n)

			// The sysimrslogs device dies; nobody writes afterwards. One
			// pack cycle is what finds out.
			faulty.Kill()
			e.Packer().Step()
			if e.Packer().RelocErrors.Load() == 0 {
				t.Fatal("pack cycle did not fail; fault injection ineffective")
			}
			if got := e.HealthState(); got != StateReadOnly {
				t.Fatalf("health state after a failed pack commit = %v, want read-only", got)
			}
			if cause := e.health.readOnlyCause(); !errors.Is(cause, wal.ErrPoisoned) {
				t.Fatalf("read-only cause = %v, want wal.ErrPoisoned", cause)
			}
			// The rows the pack could not move are still served.
			rtx := e.Begin()
			defer rtx.Abort()
			for i := int64(1); i <= n; i++ {
				rw, ok, err := rtx.Get("items", pk(i))
				if err != nil || !ok || rw[2].Int() != i {
					t.Fatalf("row %d after failed pack: %v ok=%v err=%v", i, rw, ok, err)
				}
			}
		})
	}
}
