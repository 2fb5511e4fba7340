package chaos

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/row"
	"repro/internal/wal"
)

// The engine scenarios drive shard 0 directly: keys above the accounts
// are only ever placed on shard 0, so the node's router and the engine
// agree on where they live.

func calm(h *harness) error {
	if err := h.workload(opsPerCycle); err != nil {
		return err
	}
	// Calm cycles end consistent: the live node matches the model.
	return h.verify(h.admin, true)
}

// transientDevice arms a glitching page device: the retry layer (or the
// degraded fallback) must absorb it without losing a row.
func transientDevice(h *harness) error {
	n := int64(1 + h.rng.Intn(4))
	h.media[0].fdev.AddTransientReadFaults(n)
	h.media[0].fdev.AddTransientWriteFaults(n)
	h.res.TransientFaults += 2 * n
	if err := h.workload(opsPerCycle); err != nil {
		return err
	}
	h.node.Engine(0).Packer().Step() // let pack touch the glitching device too
	return nil
}

func transientWAL(h *harness) error {
	n := int64(1 + h.rng.Intn(3))
	for _, b := range []*wal.FaultyBackend{h.media[0].fsys, h.media[0].fims} {
		b.AddTransientAppendFaults(n)
		b.AddTransientSyncFaults(n)
	}
	h.res.TransientFaults += 4 * n
	return h.workload(opsPerCycle)
}

func crashMidWorkload(h *harness) error {
	if err := h.workload(opsPerCycle / 2); err != nil {
		return err
	}
	// Transient budgets left over from an earlier cycle can concentrate
	// on one group-commit flush (batching is timing-dependent), exhaust
	// its retries and poison the log during the burst: Halt then rightly
	// reports read-only, so expect the verdict the node reached.
	return h.crashRecover(h.readOnly())
}

// logDeath kills one of shard 0's logs mid-workload and checks the
// read-only contract before recovering.
func logDeath(h *harness) error {
	which, victim, other := "syslogs", h.media[0].fsys, h.media[0].fims
	if h.rng.Intn(2) == 1 {
		which, victim, other = "sysimrslogs", h.media[0].fims, h.media[0].fsys
	}
	h.logf("hard %s death", which)
	if err := h.workload(opsPerCycle / 2); err != nil {
		return err
	}
	victim.Kill()
	if err := h.driveToReadOnly(other); err != nil {
		return err
	}
	eng := h.node.Engine(0)
	if hs := eng.Health(); hs.State != core.StateReadOnly || hs.ReadOnlyCause == "" {
		return fmt.Errorf("state %v with cause %q during the read-only check", hs.State, hs.ReadOnlyCause)
	}
	// Committed rows are still served, rolled-back ones never are.
	if err := h.verify(h.admin, false); err != nil {
		return fmt.Errorf("read-only shard: %w", err)
	}
	tx := eng.Begin()
	werr := tx.Insert(table, chaosRow(h.m.next, 0))
	tx.Abort()
	var ro *core.ReadOnlyError
	if !errors.As(werr, &ro) || ro.Cause == nil {
		return fmt.Errorf("read-only write returned %v, want a *core.ReadOnlyError with a cause", werr)
	}
	h.res.ReadOnlyEvents++
	return h.crashRecover(true)
}

// driveToReadOnly keeps writing after a log was killed until shard 0
// observes the death and freezes writes. The table is pinned in and out
// of the IMRS alternately so both logs see commit traffic. A Degraded
// engine routes every insert to the page store, so a killed sysimrslogs
// can starve; then the other log is killed too.
func (h *harness) driveToReadOnly(other *wal.FaultyBackend) error {
	eng := h.node.Engine(0)
	for i := 0; i < 60; i++ {
		if eng.HealthState() >= core.StateReadOnly {
			return nil
		}
		if i == 30 {
			other.Kill()
		}
		if err := eng.PinTable(table, i%2 == 0); err != nil {
			return fmt.Errorf("pin flip: %w", err)
		}
		if err := h.opInsert(); err != nil {
			return err
		}
	}
	return fmt.Errorf("shard 0 never went read-only after a log death (state %v)", eng.HealthState())
}

// workload runs n random single-transaction operations on shard 0. It
// tolerates fault-induced commit failures; a commit that succeeds and
// then loses data is caught by the next verify.
func (h *harness) workload(n int) error {
	for i := 0; i < n; i++ {
		if h.node.Engine(0).HealthState() >= core.StateReadOnly {
			return nil // writes are frozen; the scenario takes over
		}
		var err error
		switch p := h.rng.Intn(100); {
		case p < 45:
			err = h.opInsert()
		case p < 70:
			err = h.opWrite(true)
		case p < 85:
			err = h.opWrite(false)
		default:
			err = h.opRead()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// pickExisting returns a random committed key of the engine scenarios,
// or 0 when a few tries find none.
func (h *harness) pickExisting() int64 {
	if h.m.next <= accounts+1 {
		return 0
	}
	for try := 0; try < 8; try++ {
		key := accounts + 1 + h.rng.Int63n(h.m.next-accounts-1)
		if _, ok := h.m.rows[key]; ok {
			return key
		}
	}
	return 0
}

func (h *harness) opInsert() error {
	key := h.m.next
	for h.shardOf(key) != 0 {
		key++
	}
	h.m.next = key + 1
	qty := h.rng.Int63n(1 << 20)
	tx := h.node.Engine(0).Begin()
	if err := tx.Insert(table, chaosRow(key, qty)); err != nil {
		tx.Abort()
		return writeRejected(key, err)
	}
	return h.commitOutcome(key, state{}, state{true, qty}, tx.Commit())
}

// opWrite updates (or deletes) a committed key; with none, it inserts.
func (h *harness) opWrite(update bool) error {
	key := h.pickExisting()
	if key == 0 {
		return h.opInsert()
	}
	before, after := state{true, h.m.rows[key]}, state{}
	tx := h.node.Engine(0).Begin()
	var found bool
	var err error
	if update {
		after = state{true, h.rng.Int63n(1 << 20)}
		found, err = tx.Update(table, pk(key), func(row.Row) (row.Row, error) { return chaosRow(key, after.qty), nil })
	} else {
		found, err = tx.Delete(table, pk(key))
	}
	if err != nil || !found {
		tx.Abort()
		if err == nil {
			return fmt.Errorf("committed key %d missing on write", key)
		}
		return writeRejected(key, err)
	}
	return h.commitOutcome(key, before, after, tx.Commit())
}

func (h *harness) opRead() error {
	key := h.pickExisting()
	if key == 0 {
		return nil
	}
	qty, ok, err := h.get(key)
	if err != nil || !ok || qty != h.m.rows[key] {
		return fmt.Errorf("read of committed key %d: qty %d, found %v, err %v; committed %d", key, qty, ok, err, h.m.rows[key])
	}
	return nil
}

// commitOutcome folds one commit result into the model.
func (h *harness) commitOutcome(key int64, before, after state, err error) error {
	if err == nil {
		h.res.Commits++
		h.m.apply(key, after)
		return nil
	}
	h.res.FailedCommits++
	if errors.Is(err, core.ErrReadOnly) || errors.Is(err, wal.ErrPoisoned) ||
		errors.Is(err, wal.ErrHalted) || errors.Is(err, wal.ErrInjected) ||
		errors.Is(err, fault.ErrExhausted) {
		// The log may or may not have taken the commit's bytes before the
		// failure: both states are acceptable after recovery.
		delete(h.m.rows, key)
		h.m.ambig[key] = []state{before, after}
		return nil
	}
	return fmt.Errorf("commit of key %d failed unexpectedly: %w", key, err)
}

// writeRejected classifies a write error before commit: a read-only
// rejection is expected (the workload stops), anything else fails.
func writeRejected(key int64, err error) error {
	if errors.Is(err, core.ErrReadOnly) {
		return nil
	}
	return fmt.Errorf("write to key %d rejected: %w", key, err)
}
