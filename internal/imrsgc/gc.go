// Package imrsgc implements the multi-threaded, non-blocking IMRS
// garbage collection of the BTrim architecture (paper Section II):
// background workers reclaim memory from obsolete row versions once no
// active snapshot can read them, and — piggybacking on that processing —
// maintain the pack subsystem's relaxed LRU queues so that transactions
// never touch queue locks (paper Section VI-B).
//
// The retire side is striped: producers (commit paths, pack) append to
// one of GOMAXPROCS-sized, cache-line-padded shard buffers chosen from a
// per-goroutine hint, so concurrent committers never contend on a shared
// collector lock. The reclaim side is partition-parallel: workers drain
// the shards into per-partition pending lists and claim whole partitions
// exclusively. The safety argument is the same commutativity that
// parallelizes recovery replay — a RID lives in exactly one partition,
// so version chains, fragment frees, RID-map unpublish and ILM queue
// maintenance for different partitions never alias, while per-partition
// claims keep each partition's work single-writer and in retire order.
//
// The collection pipeline is infallible by construction: retire/free
// operate on in-memory structures only (no I/O, no allocation that can
// fail), every hook returns nothing, and work that is not yet
// reclaimable stays queued for the next pass. There is deliberately no
// dropped-error path here — the engine health state machine watches the
// subsystems that can fail (WAL, device, checkpoint, pack relocation)
// instead.
package imrsgc

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/imrs"
	"repro/internal/metrics"
	"repro/internal/rid"
	"repro/internal/txn"
)

// Hooks are the engine-supplied callbacks.
type Hooks struct {
	// OnReclaimEntry unpublishes a fully dead entry (deleted or packed)
	// from the RID map, hash indexes and ILM queues. Called before the
	// entry's memory is released.
	OnReclaimEntry func(*imrs.Entry)
	// OnNewRow enqueues a newly committed IMRS row on its partition's
	// ILM queue.
	OnNewRow func(*imrs.Entry)
}

// Every retire item carries a global sequence stamp. Within a partition
// items are processed in seq order, which makes the parallel pipeline's
// end state (including ILM queue order) identical to a serial run's.
type retiredVersion struct {
	e        *imrs.Entry
	newer    *imrs.Version // the superseding version
	v        *imrs.Version
	retireTS uint64
	seq      uint64
}

type retiredEntry struct {
	e        *imrs.Entry
	retireTS uint64
	seq      uint64
}

type newRow struct {
	e   *imrs.Entry
	seq uint64
}

// retireShard is one producer-side buffer. The trailing pad keeps the
// mutexes of adjacent shards off the same cache line.
type retireShard struct {
	mu       sync.Mutex
	versions []retiredVersion
	entries  []retiredEntry
	newRows  []newRow
	_        [64]byte
}

// partWork is the per-partition reclaim state. fresh* receive drained
// shard items (unsorted); gated* hold not-yet-reclaimable survivors in
// seq order, so a pass only rescans the reclaimable prefix plus the
// first still-gated item instead of the whole backlog.
type partWork struct {
	id   rid.PartitionID
	busy bool

	freshV []retiredVersion
	freshE []retiredEntry
	freshN []newRow

	gatedV []retiredVersion
	gatedE []retiredEntry
}

func (pw *partWork) pending() bool {
	return len(pw.freshV)+len(pw.freshE)+len(pw.freshN)+len(pw.gatedV)+len(pw.gatedE) > 0
}

// workerScratch is the reusable per-pass buffer set of one worker (or of
// a Drain caller), keeping the steady-state collection loop allocation
// free.
type workerScratch struct {
	versions []retiredVersion
	entries  []retiredEntry
	newRows  []newRow
	claims   []*partWork
}

// GC is the collector. Producers (commit paths, pack) never block on
// shared collector state: retire calls append under a shard-local mutex
// and poke the workers.
type GC struct {
	store *imrs.Store
	snaps *txn.SnapshotRegistry
	hooks Hooks

	shards    []retireShard
	shardMask uint64

	seq atomic.Uint64 // global retire-order stamp

	partMu   sync.Mutex
	partCond *sync.Cond
	parts    map[rid.PartitionID]*partWork

	notify  chan struct{}
	stop    chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup

	// Stats
	VersionsFreed metrics.Counter
	EntriesFreed  metrics.Counter
	RowsEnqueued  metrics.Counter
	Passes        metrics.Counter // partition claims processed
}

// New builds a collector over the store and snapshot registry.
func New(store *imrs.Store, snaps *txn.SnapshotRegistry, hooks Hooks) *GC {
	n := 1
	for n < runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	if n < 4 {
		n = 4
	}
	g := &GC{
		store:  store,
		snaps:  snaps,
		hooks:  hooks,
		shards: make([]retireShard, n),
		parts:  make(map[rid.PartitionID]*partWork),
		notify: make(chan struct{}, 16),
		stop:   make(chan struct{}),
	}
	g.shardMask = uint64(n - 1)
	g.partCond = sync.NewCond(&g.partMu)
	return g
}

// Start launches n worker goroutines (minimum 1).
func (g *GC) Start(n int) {
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		g.wg.Add(1)
		go g.worker()
	}
}

// Stop stops the workers and then drains: final passes run until a full
// pass frees and enqueues nothing, so retire work that became
// reclaimable after the last poke (for example because the last active
// snapshot unregistered without another commit) is still released.
// Work that is gated by a still-active snapshot stays queued, as during
// normal operation. Stop is idempotent.
func (g *GC) Stop() {
	if g.stopped.Swap(true) {
		return
	}
	close(g.stop)
	g.wg.Wait()
	sc := &workerScratch{}
	for g.processWith(sc) {
	}
}

func (g *GC) poke() {
	select {
	case g.notify <- struct{}{}:
	default:
	}
}

// shard picks the calling goroutine's retire buffer. Like the metrics
// package's striped counters, the address of a stack variable is a
// cheap, well-distributed per-goroutine hint.
func (g *GC) shard() *retireShard {
	var b byte
	p := uintptr(unsafe.Pointer(noescapeByte(&b)))
	h := uint64(p)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return &g.shards[h&g.shardMask]
}

//go:noinline
func noescapeByte(b *byte) *byte { return b }

// RetireVersion hands a superseded committed version to the collector.
// newer is the superseding version and retireTS its commit timestamp;
// once no active snapshot predates retireTS, everything below newer is
// unreadable and the chain is truncated there.
func (g *GC) RetireVersion(e *imrs.Entry, newer, v *imrs.Version, retireTS uint64) {
	seq := g.seq.Add(1)
	s := g.shard()
	s.mu.Lock()
	s.versions = append(s.versions, retiredVersion{e: e, newer: newer, v: v, retireTS: retireTS, seq: seq})
	s.mu.Unlock()
	g.poke()
}

// RetireEntry hands a dead entry (committed delete or pack) to the
// collector. retireTS is the tombstone/pack commit timestamp.
func (g *GC) RetireEntry(e *imrs.Entry, retireTS uint64) {
	seq := g.seq.Add(1)
	s := g.shard()
	s.mu.Lock()
	s.entries = append(s.entries, retiredEntry{e: e, retireTS: retireTS, seq: seq})
	s.mu.Unlock()
	g.poke()
}

// NewRow registers a freshly committed IMRS row for ILM-queue insertion.
func (g *GC) NewRow(e *imrs.Entry) {
	seq := g.seq.Add(1)
	s := g.shard()
	s.mu.Lock()
	s.newRows = append(s.newRows, newRow{e: e, seq: seq})
	s.mu.Unlock()
	g.poke()
}

// Drain runs one full collection pass synchronously on the caller's
// goroutine, waiting for any in-flight worker claim on a partition
// rather than skipping it: when Drain returns, every item that was
// retired and reclaimable before the call has been freed. Retirers that
// need reclaimed memory visible immediately (pack cycles, tests driving
// Step manually) call it instead of waiting for a worker tick; it is
// safe alongside the background workers.
func (g *GC) Drain() {
	sc := &workerScratch{}
	g.collect(sc)
	g.partMu.Lock()
	ids := make([]rid.PartitionID, 0, len(g.parts))
	for id := range g.parts {
		ids = append(ids, id)
	}
	g.partMu.Unlock()
	for _, id := range ids {
		g.partMu.Lock()
		pw := g.parts[id]
		for pw.busy {
			g.partCond.Wait()
		}
		if !pw.pending() {
			g.partMu.Unlock()
			continue
		}
		pw.busy = true
		g.partMu.Unlock()
		g.reclaimPart(pw, sc, g.snaps.MinActive())
		g.release(pw)
	}
}

// Pending returns outstanding item counts (tests). Items privately held
// by an in-flight worker claim are not counted; quiesce first.
func (g *GC) Pending() (versions, entries, newRows int) {
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		versions += len(s.versions)
		entries += len(s.entries)
		newRows += len(s.newRows)
		s.mu.Unlock()
	}
	g.partMu.Lock()
	for _, pw := range g.parts {
		versions += len(pw.freshV) + len(pw.gatedV)
		entries += len(pw.freshE) + len(pw.gatedE)
		newRows += len(pw.freshN)
	}
	g.partMu.Unlock()
	return versions, entries, newRows
}

func (g *GC) worker() {
	defer g.wg.Done()
	sc := &workerScratch{}
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-g.notify:
		case <-tick.C:
		}
		g.processWith(sc)
	}
}

// process runs one collection pass (tests).
func (g *GC) process() { g.processWith(&workerScratch{}) }

// processWith runs one collection pass: drain the shard buffers into
// per-partition lists, then claim and reclaim every claimable
// partition. It reports whether the pass freed or enqueued anything
// (Stop's drain loop terminates when a full pass does nothing).
func (g *GC) processWith(sc *workerScratch) bool {
	g.collect(sc)
	minSnap := g.snaps.MinActive()

	// Claim every partition with pending work that no other worker holds;
	// concurrent workers naturally spread across partitions.
	sc.claims = sc.claims[:0]
	g.partMu.Lock()
	for _, pw := range g.parts {
		if !pw.busy && pw.pending() {
			pw.busy = true
			sc.claims = append(sc.claims, pw)
		}
	}
	g.partMu.Unlock()

	did := false
	for _, pw := range sc.claims {
		if g.reclaimPart(pw, sc, minSnap) {
			did = true
		}
		g.release(pw)
	}
	return did
}

// collect drains all shard buffers into the per-partition pending
// lists. Shard and partition slices keep their capacity, so the
// steady-state loop does not allocate.
func (g *GC) collect(sc *workerScratch) {
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		if len(s.versions)+len(s.entries)+len(s.newRows) == 0 {
			s.mu.Unlock()
			continue
		}
		sc.versions = append(sc.versions[:0], s.versions...)
		sc.entries = append(sc.entries[:0], s.entries...)
		sc.newRows = append(sc.newRows[:0], s.newRows...)
		clear(s.versions)
		clear(s.entries)
		clear(s.newRows)
		s.versions, s.entries, s.newRows = s.versions[:0], s.entries[:0], s.newRows[:0]
		s.mu.Unlock()

		g.partMu.Lock()
		for _, rv := range sc.versions {
			pw := g.pw(rv.e.Part)
			pw.freshV = append(pw.freshV, rv)
		}
		for _, re := range sc.entries {
			pw := g.pw(re.e.Part)
			pw.freshE = append(pw.freshE, re)
		}
		for _, nr := range sc.newRows {
			pw := g.pw(nr.e.Part)
			pw.freshN = append(pw.freshN, nr)
		}
		g.partMu.Unlock()
	}
}

// pw returns (creating on first use) a partition's work list. Caller
// holds partMu.
func (g *GC) pw(id rid.PartitionID) *partWork {
	pw := g.parts[id]
	if pw == nil {
		pw = &partWork{id: id}
		g.parts[id] = pw
	}
	return pw
}

// release returns a claimed partition.
func (g *GC) release(pw *partWork) {
	g.partMu.Lock()
	pw.busy = false
	g.partMu.Unlock()
	g.partCond.Broadcast()
}

// reclaimPart runs one reclamation pass over a claimed partition:
// ILM-queue maintenance first (cheap, ungated), then version/entry
// frees gated on the oldest active snapshot. Fresh arrivals are sorted
// by retire seq and processed once; survivors append to the gated lists,
// which stay in seq order so the next pass stops at the first item that
// is still unreclaimable instead of rescanning the whole backlog.
func (g *GC) reclaimPart(pw *partWork, sc *workerScratch, minSnap uint64) bool {
	g.Passes.Inc()
	// Take the partition's work. fresh* are copied out and truncated in
	// place (collect may append while we run); gated* are exclusively
	// ours while busy.
	g.partMu.Lock()
	sc.versions = append(sc.versions[:0], pw.freshV...)
	sc.entries = append(sc.entries[:0], pw.freshE...)
	sc.newRows = append(sc.newRows[:0], pw.freshN...)
	clear(pw.freshV)
	clear(pw.freshE)
	clear(pw.freshN)
	pw.freshV, pw.freshE, pw.freshN = pw.freshV[:0], pw.freshE[:0], pw.freshN[:0]
	gatedV, gatedE := pw.gatedV, pw.gatedE
	pw.gatedV, pw.gatedE = nil, nil
	g.partMu.Unlock()

	did := false

	// Queue maintenance in retire order.
	sortNewRows(sc.newRows)
	if g.hooks.OnNewRow != nil {
		for _, nr := range sc.newRows {
			if !nr.e.Packed() {
				g.hooks.OnNewRow(nr.e)
				g.RowsEnqueued.Inc()
				did = true
			}
		}
	} else {
		// Still consume the items so Pending drains without hooks.
		did = did || len(sc.newRows) > 0
	}

	// Gated backlog: free the reclaimable prefix, stop at the first item
	// a snapshot still shields (the list is seq-ordered, and retire
	// timestamps are monotone in seq up to producer-side races, so
	// later items are almost surely shielded too — they get rechecked
	// once the prefix clears).
	i := 0
	for ; i < len(gatedV); i++ {
		if gatedV[i].retireTS > minSnap {
			break
		}
		g.freeVersion(gatedV[i])
		did = true
	}
	clear(gatedV[:i])
	gatedV = gatedV[i:]
	i = 0
	for ; i < len(gatedE); i++ {
		if gatedE[i].retireTS > minSnap {
			break
		}
		g.freeEntry(gatedE[i])
		did = true
	}
	clear(gatedE[:i])
	gatedE = gatedE[i:]

	// Fresh arrivals: each is examined exactly once here; survivors go
	// to the gated tail in seq order.
	sortVersions(sc.versions)
	for _, rv := range sc.versions {
		if rv.retireTS <= minSnap {
			g.freeVersion(rv)
			did = true
		} else {
			gatedV = append(gatedV, rv)
		}
	}
	sortEntries(sc.entries)
	for _, re := range sc.entries {
		if re.retireTS <= minSnap {
			g.freeEntry(re)
			did = true
		} else {
			gatedE = append(gatedE, re)
		}
	}

	g.partMu.Lock()
	pw.gatedV, pw.gatedE = gatedV, gatedE
	g.partMu.Unlock()
	return did
}

func (g *GC) freeVersion(rv retiredVersion) {
	if rv.newer != nil {
		rv.newer.TruncateOlder()
	}
	g.store.FreeVersion(rv.e.Part, rv.v)
	g.VersionsFreed.Inc()
}

func (g *GC) freeEntry(re retiredEntry) {
	if g.hooks.OnReclaimEntry != nil {
		g.hooks.OnReclaimEntry(re.e)
	}
	g.store.RemoveEntry(re.e)
	g.EntriesFreed.Inc()
}

// The sorters order retire items by their global seq stamp. Small
// batches (the steady state: shards are drained every poke) use
// insertion sort to stay allocation-free; large backlogs fall back to
// sort.Slice.
func sortVersions(v []retiredVersion) {
	if len(v) <= 32 {
		for i := 1; i < len(v); i++ {
			for j := i; j > 0 && v[j].seq < v[j-1].seq; j-- {
				v[j], v[j-1] = v[j-1], v[j]
			}
		}
		return
	}
	sort.Slice(v, func(i, j int) bool { return v[i].seq < v[j].seq })
}

func sortEntries(v []retiredEntry) {
	if len(v) <= 32 {
		for i := 1; i < len(v); i++ {
			for j := i; j > 0 && v[j].seq < v[j-1].seq; j-- {
				v[j], v[j-1] = v[j-1], v[j]
			}
		}
		return
	}
	sort.Slice(v, func(i, j int) bool { return v[i].seq < v[j].seq })
}

func sortNewRows(v []newRow) {
	if len(v) <= 32 {
		for i := 1; i < len(v); i++ {
			for j := i; j > 0 && v[j].seq < v[j-1].seq; j-- {
				v[j], v[j-1] = v[j-1], v[j]
			}
		}
		return
	}
	sort.Slice(v, func(i, j int) bool { return v[i].seq < v[j].seq })
}
