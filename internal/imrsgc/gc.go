// Package imrsgc implements the non-blocking IMRS garbage collection of
// the BTrim architecture (paper Section II): a background collector
// frees obsolete row versions and dead entries once no reader can reach
// them and, piggybacking on that work, maintains the pack subsystem's
// relaxed LRU queues so transactions never touch queue locks (Section
// VI-B).
//
// One rule decides when retired memory is free: an item retired while a
// reader was registered is not freed until that reader unregisters.
// Readers register Epoch in a txn.SnapshotRegistry before they take
// their snapshot. Each pass drains the retire stripes into one batch,
// tags it with the current epoch, advances the epoch, and frees from
// the head of one FIFO while the head's tag is below every registered
// epoch. A reader registered before a retire holds an epoch no greater
// than the item's tag; a reader with a larger epoch loaded it after the
// batch was drained, so its snapshot cannot reach the item. Tags are
// monotone along the FIFO, so a pass costs O(new + freed) however long
// a reader holds the head. DESIGN.md §10 has the full argument.
//
// Producers (commit paths, pack) append to cache-line-padded stripes
// chosen from a per-goroutine hint and never share a lock. One
// background goroutine runs passes and Drain runs one on the caller's
// goroutine; a mutex serialises them, so the hooks never run
// concurrently. Collection is infallible by construction — in-memory
// frees only, hooks return nothing, unreclaimable work waits for the
// next pass — so there is deliberately no error path here; the engine
// health state machine watches the subsystems that can fail.
package imrsgc

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/imrs"
	"repro/internal/metrics"
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

// retired is one retire event: a superseded version (v set, newer the
// version that superseded it) or, with v nil, a whole dead entry. tag
// is the epoch of the pass that drained it.
type retired struct {
	e        *imrs.Entry
	newer, v *imrs.Version
	tag      uint64
}

// stripe is one producer-side buffer. The trailing pad keeps the
// mutexes of adjacent stripes off the same cache line.
type stripe struct {
	mu      sync.Mutex
	retired []retired
	newRows []*imrs.Entry
	_       [64]byte
}

// GC is the collector. Retire calls append under a stripe-local mutex
// and poke the background goroutine; they never wait for a pass.
type GC struct {
	store   *imrs.Store
	readers *txn.SnapshotRegistry
	hooks   Hooks

	stripes []stripe
	mask    uint64

	epoch atomic.Uint64

	// passMu serialises passes and guards the fields below it.
	passMu  sync.Mutex
	fifo    []retired // oldest tag first; fifo[:head] is already freed
	head    int
	newRows []*imrs.Entry // per-pass scratch

	notify  chan struct{}
	stop    chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup

	// Stats
	VersionsFreed metrics.Counter
	EntriesFreed  metrics.Counter
	RowsEnqueued  metrics.Counter
	Passes        metrics.Counter // passes that drained or freed work
}

// New builds a collector over the store and the registry its readers
// register their epochs in.
func New(store *imrs.Store, readers *txn.SnapshotRegistry, hooks Hooks) *GC {
	n := 4 // a power of two, at least GOMAXPROCS
	for n < runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	return &GC{
		store:   store,
		readers: readers,
		hooks:   hooks,
		stripes: make([]stripe, n),
		mask:    uint64(n - 1),
		notify:  make(chan struct{}, 1), // one pending poke covers every retire before it
		stop:    make(chan struct{}),
	}
}

// Epoch returns the value a reader registers before taking its
// snapshot: every item retired after the registration gets a tag no
// smaller than it and stays allocated until the reader unregisters.
func (g *GC) Epoch() uint64 { return g.epoch.Load() }

// Start launches the background collector goroutine.
func (g *GC) Start() {
	g.wg.Add(1)
	go g.loop()
}

// Stop stops the background goroutine, then runs passes until one
// drains and frees nothing, so work that became reclaimable after the
// last poke (the last reader left without another commit) is released;
// work a registered reader still holds stays queued. Stop is idempotent.
func (g *GC) Stop() {
	if g.stopped.Swap(true) {
		return
	}
	close(g.stop)
	g.wg.Wait()
	for g.pass() {
	}
}

func (g *GC) poke() {
	select {
	case g.notify <- struct{}{}:
	default:
	}
}

// stripe picks the calling goroutine's retire buffer. Like the metrics
// package's striped counters, the address of a stack variable is a
// cheap, well-distributed per-goroutine hint.
func (g *GC) stripe() *stripe {
	var b byte
	p := uintptr(unsafe.Pointer(noescapeByte(&b)))
	h := uint64(p)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return &g.stripes[h&g.mask]
}

//go:noinline
func noescapeByte(b *byte) *byte { return b }

func (g *GC) retire(r retired) {
	s := g.stripe()
	s.mu.Lock()
	s.retired = append(s.retired, r)
	s.mu.Unlock()
	g.poke()
}

// RetireVersion hands a superseded committed version v to the
// collector; newer, already stamped, superseded it, so snapshots taken
// from now on stop above v. Once the readers registered before this
// call are gone, the chain is truncated below newer and v is freed.
func (g *GC) RetireVersion(e *imrs.Entry, newer, v *imrs.Version) {
	g.retire(retired{e: e, newer: newer, v: v})
}

// RetireEntry hands a dead entry (committed delete or pack) to the
// collector. The caller has already made it unreadable to snapshots
// taken from now on: its tombstone is stamped, or it is unpublished
// from the RID map.
func (g *GC) RetireEntry(e *imrs.Entry) { g.retire(retired{e: e}) }

// NewRow registers a freshly committed IMRS row for ILM-queue insertion.
func (g *GC) NewRow(e *imrs.Entry) {
	s := g.stripe()
	s.mu.Lock()
	s.newRows = append(s.newRows, e)
	s.mu.Unlock()
	g.poke()
}

// Drain runs one pass on the caller's goroutine, after any in-flight
// background pass: on return, every item retired before the call that
// no registered reader holds is freed. Pack cycles call it to see their
// reclaimed memory at once.
func (g *GC) Drain() { g.pass() }

func (g *GC) loop() {
	defer g.wg.Done()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-g.notify:
		case <-tick.C:
		}
		g.pass()
	}
}

// pass runs one collection pass and reports whether it drained or
// freed anything (Stop's drain loop ends at a pass that did neither).
// The FIFO and stripe slices keep their capacity, so the steady-state
// loop does not allocate.
func (g *GC) pass() bool {
	g.passMu.Lock()
	defer g.passMu.Unlock()

	// 1. Drain the stripes into one batch at the FIFO's tail.
	start := len(g.fifo)
	for i := range g.stripes {
		s := &g.stripes[i]
		s.mu.Lock()
		g.fifo = append(g.fifo, s.retired...)
		g.newRows = append(g.newRows, s.newRows...)
		clear(s.retired)
		clear(s.newRows)
		s.retired, s.newRows = s.retired[:0], s.newRows[:0]
		s.mu.Unlock()
	}
	drained := len(g.fifo) > start || len(g.newRows) > 0

	// 2. Tag the batch with the current epoch, then advance it. Only
	// now, with every stripe drained: a reader that loaded the epoch
	// before any of these retires must not hold a larger value.
	if len(g.fifo) > start {
		tag := g.epoch.Add(1) - 1
		for i := start; i < len(g.fifo); i++ {
			g.fifo[i].tag = tag
		}
	}

	// 3. Queue maintenance for new rows; no reader can object to it.
	for _, e := range g.newRows {
		if g.hooks.OnNewRow != nil && !e.Packed() {
			g.hooks.OnNewRow(e)
			g.RowsEnqueued.Inc()
		}
	}
	clear(g.newRows)
	g.newRows = g.newRows[:0]

	// 4. Free from the head while every registered reader is younger.
	freed := false
	if g.head < len(g.fifo) {
		min := g.readers.MinActive()
		for ; g.head < len(g.fifo) && g.fifo[g.head].tag < min; g.head++ {
			g.free(g.fifo[g.head])
			g.fifo[g.head] = retired{}
			freed = true
		}
		// Compact once the freed prefix is the larger half, so each item
		// is moved O(1) times on average.
		if g.head > len(g.fifo)/2 {
			n := copy(g.fifo, g.fifo[g.head:])
			clear(g.fifo[n:])
			g.fifo, g.head = g.fifo[:n], 0
		}
	}
	did := drained || freed
	if did {
		g.Passes.Inc()
	}
	return did
}

func (g *GC) free(r retired) {
	if r.v != nil {
		if r.newer != nil {
			r.newer.TruncateOlder()
		}
		g.store.FreeVersion(r.e.Part, r.v)
		g.VersionsFreed.Inc()
		return
	}
	if g.hooks.OnReclaimEntry != nil {
		g.hooks.OnReclaimEntry(r.e)
	}
	g.store.RemoveEntry(r.e)
	g.EntriesFreed.Inc()
}
