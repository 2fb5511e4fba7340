package txn

import (
	"errors"
	"time"

	"repro/internal/rid"
	"sync"
)

// ErrLockTimeout reports that a blocking lock acquisition gave up; the
// caller should abort its transaction (the engine's deadlock breaker).
var ErrLockTimeout = errors.New("txn: lock wait timeout")

// DefaultLockTimeout bounds blocking lock waits.
const DefaultLockTimeout = 5 * time.Second

const lockShards = 64

// lockFreeMax bounds each shard's list of recycled entries.
const lockFreeMax = 16

type lockEntry struct {
	holder  uint64 // owning transaction id; 0 when free
	count   int    // reentrancy count
	waiters int
	// release is made by the first waiter and closed (then cleared) on
	// the release that follows; an uncontended lock never makes one.
	release chan struct{}
}

type lockShard struct {
	mu      sync.Mutex
	entries map[rid.RID]*lockEntry
	free    []*lockEntry // recycled entries, all fields zero
}

// LockManager grants exclusive row locks keyed by RID. Locks are
// reentrant per transaction. TryLock implements the conditional lock
// acquisition used by Pack: if a row lock cannot be granted immediately,
// the row is skipped (paper Section VII-B).
//
// An entry is referenced only under its shard's mutex (a waiter keeps
// just the release channel), so an entry that has neither holder nor
// waiters is deleted and recycled at once.
type LockManager struct {
	shards  [lockShards]lockShard
	timeout time.Duration
}

// NewLockManager returns a manager with the given wait timeout
// (DefaultLockTimeout when zero).
func NewLockManager(timeout time.Duration) *LockManager {
	if timeout <= 0 {
		timeout = DefaultLockTimeout
	}
	m := &LockManager{timeout: timeout}
	for i := range m.shards {
		m.shards[i].entries = make(map[rid.RID]*lockEntry)
	}
	return m
}

func (m *LockManager) shard(r rid.RID) *lockShard {
	h := uint64(r)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return &m.shards[h%lockShards]
}

// entry returns r's entry, adding a recycled or new one. Shard mutex
// held.
func (s *lockShard) entry(r rid.RID) *lockEntry {
	if e, ok := s.entries[r]; ok {
		return e
	}
	var e *lockEntry
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		e = &lockEntry{}
	}
	s.entries[r] = e
	return e
}

// retire deletes r's entry once nothing holds or waits for it, and
// recycles it. Shard mutex held.
func (s *lockShard) retire(r rid.RID, e *lockEntry) {
	if e.holder != 0 || e.waiters != 0 || e.count != 0 {
		return
	}
	delete(s.entries, r)
	if len(s.free) < lockFreeMax {
		*e = lockEntry{}
		s.free = append(s.free, e)
	}
}

// Lock acquires the exclusive lock on r for txnID, blocking up to the
// manager timeout. It is reentrant for the same transaction.
func (m *LockManager) Lock(txnID uint64, r rid.RID) error {
	s := m.shard(r)
	var deadline time.Time // set by the first wait
	for {
		s.mu.Lock()
		e := s.entry(r)
		if e.holder == 0 || e.holder == txnID {
			e.holder = txnID
			e.count++
			s.mu.Unlock()
			return nil
		}
		if e.release == nil {
			e.release = make(chan struct{})
		}
		wait := e.release
		e.waiters++
		s.mu.Unlock()

		if deadline.IsZero() {
			deadline = time.Now().Add(m.timeout)
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			m.dropWaiter(s, r)
			return ErrLockTimeout
		}
		t := time.NewTimer(remaining)
		select {
		case <-wait:
			t.Stop()
			m.dropWaiter(s, r)
		case <-t.C:
			m.dropWaiter(s, r)
			return ErrLockTimeout
		}
	}
}

func (m *LockManager) dropWaiter(s *lockShard, r rid.RID) {
	s.mu.Lock()
	if e, ok := s.entries[r]; ok {
		e.waiters--
		s.retire(r, e)
	}
	s.mu.Unlock()
}

// TryLock attempts the lock without waiting and reports success.
func (m *LockManager) TryLock(txnID uint64, r rid.RID) bool {
	s := m.shard(r)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entry(r)
	if e.holder == 0 || e.holder == txnID {
		e.holder = txnID
		e.count++
		return true
	}
	return false
}

// Unlock releases one acquisition of r by txnID. Fully released locks
// wake all waiters.
func (m *LockManager) Unlock(txnID uint64, r rid.RID) {
	s := m.shard(r)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[r]
	if !ok || e.holder != txnID {
		panic("txn: unlock of lock not held")
	}
	e.count--
	if e.count > 0 {
		return
	}
	e.holder = 0
	if e.release != nil {
		close(e.release)
		e.release = nil
	}
	s.retire(r, e)
}

// HeldBy reports whether txnID currently holds r (tests).
func (m *LockManager) HeldBy(txnID uint64, r rid.RID) bool {
	s := m.shard(r)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[r]
	return ok && e.holder == txnID
}
