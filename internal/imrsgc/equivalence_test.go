package imrsgc

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/imrs"
	"repro/internal/rid"
	"repro/internal/txn"
)

// gcOp is one scripted entry life cycle: create + commit, vsn extra
// versions (each retiring its predecessor), then optionally a delete
// (tombstone + pack + RetireEntry).
type gcOp struct {
	part   rid.PartitionID
	slot   uint64
	vsn    int
	delete bool
}

func makeScript(rng *rand.Rand, parts, n int) []gcOp {
	ops := make([]gcOp, n)
	for i := range ops {
		ops[i] = gcOp{
			part:   rid.PartitionID(rng.Intn(parts) + 1),
			slot:   uint64(i + 1),
			vsn:    rng.Intn(4),
			delete: rng.Intn(3) == 0,
		}
	}
	return ops
}

// gcHarness binds a GC instance to a store and per-partition ILM-style
// queues that emulate the engine's hooks: OnNewRow pushes, OnReclaimEntry
// removes (imrs.Queue is self-locking, like the pack queue set).
type gcHarness struct {
	store *imrs.Store
	snaps *txn.SnapshotRegistry
	g     *GC
	qmu   sync.Mutex
	qs    map[rid.PartitionID]*imrs.Queue
}

func newGCHarness() *gcHarness {
	h := &gcHarness{
		store: imrs.NewStore(64 << 20),
		snaps: txn.NewSnapshotRegistry(),
		qs:    make(map[rid.PartitionID]*imrs.Queue),
	}
	h.g = New(h.store, h.snaps, Hooks{
		OnNewRow:       func(e *imrs.Entry) { h.queue(e.Part).PushTail(e) },
		OnReclaimEntry: func(e *imrs.Entry) { h.queue(e.Part).Remove(e) },
	})
	return h
}

func (h *gcHarness) queue(p rid.PartitionID) *imrs.Queue {
	h.qmu.Lock()
	defer h.qmu.Unlock()
	q := h.qs[p]
	if q == nil {
		q = &imrs.Queue{}
		h.qs[p] = q
	}
	return q
}

// run plays one op's full life cycle. ts spaces commit timestamps so
// every op gets a distinct, increasing timestamp base.
func (h *gcHarness) run(t *testing.T, op gcOp, ts uint64) {
	t.Helper()
	r := rid.NewVirtual(op.part, op.slot)
	payload := []byte(fmt.Sprintf("p%d-s%d-v0", op.part, op.slot))
	e, err := h.store.CreateEntry(r, op.part, imrs.OriginInserted, payload, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.store.Commit(e.Head(), ts)
	h.g.NewRow(e)
	prev := e.Head()
	for v := 1; v <= op.vsn; v++ {
		nv, err := h.store.AddVersion(e, []byte(fmt.Sprintf("p%d-s%d-v%d", op.part, op.slot, v)), 1)
		if err != nil {
			t.Fatal(err)
		}
		h.store.Commit(nv, ts+uint64(v))
		h.g.RetireVersion(e, nv, prev)
		prev = nv
	}
	if op.delete {
		tomb := h.store.AddTombstone(e, 1)
		h.store.Commit(tomb, ts+uint64(op.vsn)+1)
		e.MarkPacked()
		h.g.RetireEntry(e)
	}
}

// fingerprint captures the observable end state: live rows, bytes still
// allocated, free/enqueue counters, and every partition queue's
// contents (as sorted RIDs).
type gcFingerprint struct {
	rows    int64
	used    int64
	vFreed  int64
	eFreed  int64
	queued  int64
	qOrders map[rid.PartitionID][]rid.RID
}

func (h *gcHarness) fingerprint() gcFingerprint {
	fp := gcFingerprint{
		rows:    h.store.Rows(),
		used:    h.store.Allocator().Used(),
		vFreed:  h.g.VersionsFreed.Load(),
		eFreed:  h.g.EntriesFreed.Load(),
		queued:  h.g.RowsEnqueued.Load(),
		qOrders: make(map[rid.PartitionID][]rid.RID),
	}
	h.qmu.Lock()
	defer h.qmu.Unlock()
	for p, q := range h.qs {
		var order []rid.RID
		for {
			e := q.PopHead()
			if e == nil {
				break
			}
			order = append(order, e.RID)
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		fp.qOrders[p] = order
	}
	return fp
}

func (fp gcFingerprint) equal(o gcFingerprint) string {
	if fp.rows != o.rows {
		return fmt.Sprintf("rows %d != %d", fp.rows, o.rows)
	}
	if fp.used != o.used {
		return fmt.Sprintf("used bytes %d != %d", fp.used, o.used)
	}
	if fp.vFreed != o.vFreed {
		return fmt.Sprintf("versions freed %d != %d", fp.vFreed, o.vFreed)
	}
	if fp.eFreed != o.eFreed {
		return fmt.Sprintf("entries freed %d != %d", fp.eFreed, o.eFreed)
	}
	// fp.queued is deliberately not compared: whether a row that is
	// deleted moments after its NewRow ever transits the queue is a
	// timing-dependent optimization (the Packed skip); the queues'
	// final contents below are the real invariant. Their order is not:
	// rows drained in one pass follow the retire stripes, and pass
	// boundaries differ between the runs (the queues are relaxed LRU).
	if len(fp.qOrders) != len(o.qOrders) {
		return fmt.Sprintf("queue partitions %d != %d", len(fp.qOrders), len(o.qOrders))
	}
	for p, q1 := range fp.qOrders {
		q2 := o.qOrders[p]
		if len(q1) != len(q2) {
			return fmt.Sprintf("partition %d queue length %d != %d", p, len(q1), len(q2))
		}
		for i := range q1 {
			if q1[i] != q2[i] {
				return fmt.Sprintf("partition %d queue contents differ at %d: %v != %v", p, i, q1[i], q2[i])
			}
		}
	}
	return ""
}

// TestSerialParallelEquivalence checks that passes racing the producer
// change nothing observable: the same retire sequence processed by
// synchronous passes only and by the background collector plus
// concurrent Drains from the producer must leave an identical end state
// — live rows, allocated bytes, free counts, and per-partition ILM
// queue contents — with a reader holding back a stretch of the middle.
func TestSerialParallelEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			script := makeScript(rand.New(rand.NewSource(seed)), 5, 300)

			// Serial: no background collector; every few ops one
			// synchronous pass, with a reader gating a stretch of the
			// middle.
			serial := newGCHarness()
			var ref txn.SnapshotRef
			for i, op := range script {
				if i == 50 {
					ref = serial.snaps.Register(serial.g.Epoch())
				}
				if i == 200 {
					serial.snaps.Unregister(ref)
				}
				serial.run(t, op, uint64(i+1)*10)
				if i%7 == 0 {
					serial.g.Drain()
				}
			}
			serial.g.Stop()
			fpS := serial.fingerprint()

			// Parallel: same production order, with the background
			// collector racing the producer's periodic Drains.
			par := newGCHarness()
			par.g.Start()
			for i, op := range script {
				if i == 50 {
					ref = par.snaps.Register(par.g.Epoch())
				}
				if i == 200 {
					par.snaps.Unregister(ref)
				}
				par.run(t, op, uint64(i+1)*10)
				if i%13 == 0 {
					par.g.Drain()
				}
			}
			par.g.Stop()
			fpP := par.fingerprint()

			if diff := fpS.equal(fpP); diff != "" {
				t.Fatalf("serial and parallel end states diverge: %s", diff)
			}
			// Sanity: the script actually exercised both free paths.
			if fpS.vFreed == 0 || fpS.eFreed == 0 || fpS.queued == 0 {
				t.Fatalf("degenerate script: %+v", fpS)
			}
		})
	}
}

// TestGCStressConcurrentProducers hammers the striped retire pipeline
// from many producer goroutines while the collector reclaims, then checks
// conservation: every retired version/entry is freed exactly once, the
// allocator balances to zero for fully deleted partitions, and no queue
// entry survives for a reclaimed row. Run under -race this is the
// data-race proof for the stripe/FIFO handoff.
func TestGCStressConcurrentProducers(t *testing.T) {
	h := newGCHarness()
	h.g.Start()

	const producers = 8
	const perProducer = 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < perProducer; i++ {
				part := rid.PartitionID(rng.Intn(4) + 1)
				r := rid.NewVirtual(part, uint64(p*perProducer+i+1))
				e, err := h.store.CreateEntry(r, part, imrs.OriginInserted, []byte("stress-row"), 1)
				if err != nil {
					t.Error(err)
					return
				}
				ts := uint64(p*perProducer+i+1) * 4
				h.store.Commit(e.Head(), ts)
				h.g.NewRow(e)
				nv, err := h.store.AddVersion(e, []byte("stress-row-v2"), 1)
				if err != nil {
					t.Error(err)
					return
				}
				h.store.Commit(nv, ts+1)
				h.g.RetireVersion(e, nv, e.Head().Older())
				tomb := h.store.AddTombstone(e, 1)
				h.store.Commit(tomb, ts+2)
				e.MarkPacked()
				h.g.RetireEntry(e)
				if i%64 == 0 {
					h.g.Drain()
				}
			}
		}()
	}
	wg.Wait()
	h.g.Stop()

	const total = producers * perProducer
	if got := h.g.VersionsFreed.Load(); got != total {
		t.Fatalf("versions freed = %d, want %d", got, total)
	}
	if got := h.g.EntriesFreed.Load(); got != total {
		t.Fatalf("entries freed = %d, want %d", got, total)
	}
	if rows := h.store.Rows(); rows != 0 {
		t.Fatalf("%d rows leaked", rows)
	}
	if used := h.store.Allocator().Used(); used != 0 {
		t.Fatalf("%d bytes leaked", used)
	}
	for p, q := range h.qs {
		if q.Len() != 0 {
			t.Fatalf("partition %d queue holds %d reclaimed entries", p, q.Len())
		}
	}
}

// TestStopDrainsLateReclaimable pins the shutdown contract: work that
// became reclaimable after the last poke (here: the gating snapshot
// unregisters with no further retire traffic) must still be freed by
// Stop's drain-until-quiescent loop.
func TestStopDrainsLateReclaimable(t *testing.T) {
	store, snaps := fixture(t)
	g := New(store, snaps, Hooks{})
	g.Start()

	e, _ := store.CreateEntry(rid.NewVirtual(1, 1), 1, imrs.OriginInserted, []byte("v1"), 10)
	v1 := e.Head()
	store.Commit(v1, 5)
	v2, _ := store.AddVersion(e, []byte("v2"), 11)
	store.Commit(v2, 8)

	reader := snaps.Register(g.Epoch())
	g.RetireVersion(e, v2, v1)
	g.Drain() // the retire now waits in the FIFO
	if g.VersionsFreed.Load() != 0 {
		t.Fatal("version freed while a reader registered before its retire was active")
	}
	// The blocker goes away without any new retire traffic (no poke).
	snaps.Unregister(reader)
	g.Stop()
	if g.VersionsFreed.Load() != 1 {
		t.Fatal("Stop left late-reclaimable work queued")
	}
}

// Stop is called by both Engine.Halt and Engine.Close and must be
// idempotent.
func TestStopIdempotent(t *testing.T) {
	store, snaps := fixture(t)
	g := New(store, snaps, Hooks{})
	g.Start()
	g.Stop()
	g.Stop() // must not panic or hang
}
