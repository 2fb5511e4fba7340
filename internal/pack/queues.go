// Package pack implements the Pack subsystem of the BTrim architecture
// (paper Section VI): background threads that identify cold rows in the
// IMRS via partition-level relaxed LRU queues and the learned timestamp
// filter, and relocate them to the page store in small pack
// transactions, keeping cache utilization steady around a configured
// threshold.
package pack

import (
	"maps"
	"sync"
	"sync/atomic"

	"repro/internal/imrs"
	"repro/internal/rid"
)

// QueueSet holds the relaxed LRU queues: one queue per partition per row
// origin (inserted / migrated / cached), per paper Section VI-B. The
// partitions' queues are copy-on-write: For reads them without a lock
// (every entry the IMRS replay makes is enqueued through it), and a
// partition's first use or drop publishes a changed copy under mu.
type QueueSet struct {
	mu sync.Mutex
	qs atomic.Pointer[map[rid.PartitionID]*[imrs.NumOrigins]imrs.Queue]
}

// NewQueueSet returns an empty set.
func NewQueueSet() *QueueSet {
	s := &QueueSet{}
	s.qs.Store(&map[rid.PartitionID]*[imrs.NumOrigins]imrs.Queue{})
	return s
}

// For returns the queue for (part, origin), creating it on first use.
func (s *QueueSet) For(part rid.PartitionID, origin imrs.Origin) *imrs.Queue {
	trio, ok := (*s.qs.Load())[part]
	if !ok {
		s.mu.Lock()
		if trio, ok = (*s.qs.Load())[part]; !ok {
			trio = new([imrs.NumOrigins]imrs.Queue)
			m := maps.Clone(*s.qs.Load())
			m[part] = trio
			s.qs.Store(&m)
		}
		s.mu.Unlock()
	}
	return &trio[origin]
}

// Enqueue tails e on its partition/origin queue.
func (s *QueueSet) Enqueue(e *imrs.Entry) {
	s.For(e.Part, e.Origin).PushTail(e)
}

// Remove unlinks e from its queue (delete/pack cleanup).
func (s *QueueSet) Remove(e *imrs.Entry) {
	s.For(e.Part, e.Origin).Remove(e)
}

// DropPartition forgets a partition's queues (DROP TABLE). The caller
// must have unlinked or invalidated any queued entries first.
func (s *QueueSet) DropPartition(part rid.PartitionID) {
	s.mu.Lock()
	m := maps.Clone(*s.qs.Load())
	delete(m, part)
	s.qs.Store(&m)
	s.mu.Unlock()
}

// PartitionQueues returns the three queues of a partition (nil if the
// partition has never enqueued anything).
func (s *QueueSet) PartitionQueues(part rid.PartitionID) *[imrs.NumOrigins]imrs.Queue {
	return (*s.qs.Load())[part]
}

// QueuedRows returns the total queued entries for a partition.
func (s *QueueSet) QueuedRows(part rid.PartitionID) int {
	trio := s.PartitionQueues(part)
	if trio == nil {
		return 0
	}
	n := 0
	for i := range trio {
		n += trio[i].Len()
	}
	return n
}
