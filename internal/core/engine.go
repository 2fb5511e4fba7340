package core

import (
	"errors"
	"fmt"
	"log"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/ilm"
	"repro/internal/imrs"
	"repro/internal/imrsgc"
	"repro/internal/index/btree"
	"repro/internal/index/hash"
	"repro/internal/pack"
	"repro/internal/rid"
	"repro/internal/ridmap"
	"repro/internal/row"
	"repro/internal/storage/buffer"
	"repro/internal/storage/colseg"
	"repro/internal/storage/disk"
	"repro/internal/storage/heap"
	"repro/internal/txn"
	"repro/internal/wal"
)

// indexRT is the runtime of one index: its definition, the page-based
// B-tree spanning both stores, and the optional IMRS hash fast path.
type indexRT struct {
	def  *catalog.Index
	tree *btree.Tree
	hash *hash.Index
}

// partRT is the runtime of one partition: catalog entry, page-store
// heap, and ILM monitoring state.
type partRT struct {
	cat  *catalog.Partition
	heap *heap.Heap
	ilm  *ilm.PartitionState
}

// tableRT is the runtime of one table.
type tableRT struct {
	cat     *catalog.Table
	parts   []*partRT
	indexes []*indexRT
}

// part returns the table's partition with the given id, or nil when it
// has none.
func (rt *tableRT) part(id rid.PartitionID) *partRT {
	for _, p := range rt.parts {
		if p.cat.ID == id {
			return p
		}
	}
	return nil
}

// Engine is the hybrid-storage database engine.
type Engine struct {
	cfg Config

	cat     *catalog.Catalog
	dataDev disk.Device
	pool    *buffer.Pool
	syslog  *wal.Log // redo/undo log for the page store ("syslogs")
	imrslog *wal.Log // redo-only log for the IMRS ("sysimrslogs")
	imrsGen uint64   // sysimrslogs generation (bumped by compaction)

	// Writers in flight per log, which its group-commit rounds may wait
	// for (txn.go: logPeers).
	sysPeers, imrsPeers logPeers

	store  *imrs.Store
	cold   *colseg.Store
	rmap   *ridmap.Map
	locks  *txn.LockManager
	clock  *txn.Clock
	snaps  *txn.SnapshotRegistry
	gc     *imrsgc.GC
	queues *pack.QueueSet
	ilmReg *ilm.Registry
	tsf    *ilm.TSF
	tuner  *ilm.Tuner
	packer *pack.Packer

	mu  sync.Mutex // serialises writers of reg
	reg atomic.Pointer[registry]

	// ckptMu quiesces the engine for checkpoints: every transaction
	// holds it shared for its lifetime; Checkpoint takes it exclusively.
	ckptMu sync.RWMutex
	// quiesceGate admits one exclusive ckptMu request at a time; the
	// shards of a node share one (ShareQuiesceGate).
	quiesceGate atomic.Pointer[sync.Mutex]

	// relocMu orders pack moves against table scans: PackEntries holds
	// it exclusively, a scan holds it shared only while it takes its cut
	// (scanbatch.go), so every move is wholly before or after a cut.
	relocMu sync.RWMutex

	nextTxnID atomic.Uint64
	closed    atomic.Bool

	// coldEnabled gates the write side of the columnar cold store (the
	// packer freezing rows into segments). The read side (e.cold) is
	// always wired: recovery must be able to rebuild segments logged
	// before a restart that flipped the knob off.
	coldEnabled bool
	unfreezes   atomic.Int64 // cold rows pulled back by updates

	ckptStop chan struct{}
	ckptDone chan struct{}

	// Checkpoint outcome accounting: background-loop failures used to be
	// silently discarded, which let a persistently failing checkpoint
	// stop bounding recovery time forever. checkpointLocked counts every
	// outcome; after ckptFailThreshold consecutive failures the sticky
	// error surfaces on the next Checkpoint() or Close() call.
	ckptCompleted  atomic.Int64
	ckptFailed     atomic.Int64
	ckptFailMu     sync.Mutex
	ckptConsecFail int
	ckptLastErr    error

	// recovery records the last recovery run (recovery.go); written
	// before Open returns, reported by Stats afterwards.
	recovery recoveryRecord

	// twopc is the cross-shard commit accounting (twopc.go).
	twopc twopcCounters

	// decMu guards decIndex, the in-memory index of every 2PC decision
	// this engine knows about — its own RecDecide records (as
	// coordinator) plus decisions written back by peers (NoteDecision).
	// Keyed by (coordinator shard, gid): gids are only unique per
	// coordinator. Populated at recovery and on every LogDecision /
	// NoteDecision.
	decMu    sync.RWMutex
	decIndex map[decisionKey]bool

	// inDoubtMu guards inDoubtPending: in-doubt prepared transactions
	// recovery could not resolve, retained so the node-level resolver
	// can finish the job at runtime and un-park the engine (twopc.go).
	inDoubtMu      sync.Mutex
	inDoubtPending []InDoubtTxn

	// health is the engine state machine (health.go); the retriers wrap
	// the data device, both WAL flush paths, and the background
	// checkpoint (all nil when Config.DisableRetry).
	health      healthFSM
	devRetrier  *fault.Retrier
	walRetrier  *fault.Retrier
	ckptRetrier *fault.Retrier

	ownsDevices bool
}

// ckptFailThreshold is how many consecutive background checkpoint
// failures arm the sticky error surfaced by Checkpoint()/Close().
const ckptFailThreshold = 3

// Open creates or re-opens a database. When the underlying storage
// already holds data (file directory, or reused devices/backends), the
// engine recovers: it loads the last checkpoint's catalog, redoes
// committed page-store work from syslogs, replays sysimrslogs into the
// IMRS, and rebuilds all indexes.
func Open(cfg Config) (*Engine, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:    cfg,
		rmap:   ridmap.New(),
		clock:  &txn.Clock{},
		snaps:  txn.NewSnapshotRegistry(),
		locks:  txn.NewLockManager(cfg.LockTimeout),
		queues: pack.NewQueueSet(),
		ilmReg: ilm.NewRegistry(),
	}
	e.reg.Store(&registry{
		tables: make(map[string]*tableRT),
		byID:   make(map[uint32]*tableRT),
		parts:  make(map[rid.PartitionID]*partRT),
	})
	e.nextTxnID.Store(1)
	e.quiesceGate.Store(new(sync.Mutex))
	e.store = imrs.NewStore(cfg.IMRSCacheBytes)
	e.cold = colseg.NewStore()
	e.coldEnabled = !cfg.DisableColdStore

	if err := e.openStorage(); err != nil {
		return nil, err
	}
	e.health.init(e.applyDegraded)
	if !cfg.DisableRetry {
		newRetrier := func() *fault.Retrier {
			r := fault.NewRetrier(cfg.Retry)
			if cfg.RetrySleep != nil {
				r.Sleep = cfg.RetrySleep
			}
			return r
		}
		e.devRetrier = newRetrier()
		e.devRetrier.OnExhausted = func(err error) {
			e.health.setCause(causeDeviceFaults, true, err.Error())
		}
		e.devRetrier.OnRecovered = func() {
			e.health.setCause(causeDeviceFaults, false, "")
		}
		e.dataDev = disk.WithRetry(e.dataDev, e.devRetrier)
		e.walRetrier = newRetrier()
		e.syslog.SetRetrier(e.walRetrier)
		e.imrslog.SetRetrier(e.walRetrier)
		e.ckptRetrier = newRetrier()
	}

	pool, err := buffer.NewPool(e.dataDev, cfg.BufferPoolPages, func(lsn uint64) error {
		return e.syslog.Flush(lsn)
	})
	if err != nil {
		return nil, err
	}
	pool.SetNoSteal(true)
	e.pool = pool

	e.tsf = ilm.NewTSF(cfg.ILM, cfg.IMRSCacheBytes)
	e.tuner = ilm.NewTuner(cfg.ILM, e.ilmReg, cfg.IMRSCacheBytes, func(id rid.PartitionID) ilm.PartitionUsage {
		st := e.store.Part(id)
		return ilm.PartitionUsage{Rows: st.Rows.Load(), Bytes: st.Bytes.Load()}
	})
	e.gc = imrsgc.New(e.store, e.snaps, imrsgc.Hooks{
		OnReclaimEntry: e.reclaimEntry,
		OnNewRow:       e.queues.Enqueue,
	})
	e.packer = pack.New(cfg.ILM, e.store, e.queues, e.ilmReg, e.tsf, e.tuner,
		e.clock, (*relocator)(e), cfg.PackInterval, cfg.PackThreads)
	if e.coldEnabled {
		// One pack transaction = one cold segment.
		e.packer.SetBatchSize(cfg.ColdSegmentRows)
	}
	// Cache pressure (the reject backstop tripping) and repeated pack
	// relocation failures both degrade the engine; each clears when its
	// condition does.
	e.packer.OnOverload = func(over bool) {
		e.health.setCause(causeCachePressure, over, "imrs cache past the reject watermark")
	}
	e.packer.OnRelocStreak = func(streak int64, err error) {
		if streak >= packFailThreshold {
			e.health.setCause(causePackErrors, true,
				fmt.Sprintf("%d consecutive pack relocation failures, last: %v", streak, err))
		} else if streak == 0 {
			e.health.setCause(causePackErrors, false, "")
		}
	}

	if err := e.recover(); err != nil {
		return nil, err
	}

	e.gc.Start()
	if cfg.ILMEnabled {
		e.packer.Start()
	}
	if cfg.CheckpointEvery > 0 {
		e.ckptStop = make(chan struct{})
		e.ckptDone = make(chan struct{})
		go e.checkpointLoop(cfg.CheckpointEvery)
	}
	return e, nil
}

func (e *Engine) checkpointLoop(every time.Duration) {
	defer close(e.ckptDone)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-e.ckptStop:
			return
		case <-tick.C:
			if e.health.load() >= StateReadOnly {
				// A poisoned WAL fails every checkpoint; don't spin the
				// failure counter against a condition that cannot clear.
				continue
			}
			if err := e.checkpoint(); err != nil {
				e.ckptFailMu.Lock()
				n := e.ckptConsecFail
				e.ckptFailMu.Unlock()
				log.Printf("core: background checkpoint failed (%d consecutive): %v", n, err)
			}
		}
	}
}

func (e *Engine) stopCheckpointLoop() {
	if e.ckptStop != nil {
		close(e.ckptStop)
		<-e.ckptDone
		e.ckptStop = nil
	}
}

func (e *Engine) openStorage() error {
	cfg := &e.cfg
	if cfg.Dir != "" {
		dev, err := disk.OpenFileDevice(filepath.Join(cfg.Dir, "data.db"))
		if err != nil {
			return err
		}
		sb, err := wal.OpenFileBackend(filepath.Join(cfg.Dir, "syslogs.log"))
		if err != nil {
			dev.Close()
			return err
		}
		ib, err := wal.OpenFileBackend(filepath.Join(cfg.Dir, "sysimrslogs.log"))
		if err != nil {
			dev.Close()
			sb.Close()
			return err
		}
		cfg.DataDevice, cfg.SysLogBackend, cfg.IMRSLogBackend = dev, sb, ib
		if cfg.IMRSLogFactory == nil {
			dir := cfg.Dir
			cfg.IMRSLogFactory = func(gen uint64, fresh bool) (wal.Backend, error) {
				if gen == 0 {
					return wal.OpenFileBackend(filepath.Join(dir, "sysimrslogs.log"))
				}
				path := filepath.Join(dir, fmt.Sprintf("sysimrslogs.%d.log", gen))
				if fresh {
					_ = os.Remove(path) // clear any orphaned prior attempt
				}
				return wal.OpenFileBackend(path)
			}
		}
		e.ownsDevices = true
	}
	if cfg.DataDevice == nil {
		cfg.DataDevice = disk.NewMemDevice(cfg.ReadLatency, cfg.WriteLatency)
		e.ownsDevices = true
	}
	if cfg.SysLogBackend == nil {
		cfg.SysLogBackend = wal.NewMemBackend()
	}
	if cfg.IMRSLogBackend == nil {
		cfg.IMRSLogBackend = wal.NewMemBackend()
	}
	e.dataDev = cfg.DataDevice
	var err error
	if e.syslog, err = wal.NewLog(cfg.SysLogBackend); err != nil {
		return err
	}
	if e.imrslog, err = wal.NewLog(cfg.IMRSLogBackend); err != nil {
		return err
	}
	e.syslog.SetPeers(&e.sysPeers.Peers)
	e.imrslog.SetPeers(&e.imrsPeers.Peers)
	return nil
}

// Halt stops background workers without checkpointing or closing the
// storage — it simulates a crash for recovery tests: durable state is
// exactly what the logs and data device already hold. When the engine
// was already ReadOnly (a WAL poisoned), that sticky root cause is
// returned so callers shutting down learn the engine had died before
// the halt; a healthy halt returns nil.
func (e *Engine) Halt() error {
	if e.closed.Swap(true) {
		return nil
	}
	e.stopCheckpointLoop()
	if e.cfg.ILMEnabled {
		e.packer.Stop()
	}
	e.gc.Stop()
	// Abort both logs' commit paths: no round still to flush runs,
	// committers still queued get wal.ErrHalted and roll back, and the
	// commit path stays dead afterwards — the durable state is exactly
	// what a crash at this instant would leave.
	e.syslog.AbortGroupCommit()
	e.imrslog.AbortGroupCommit()
	var err error
	if ro := e.health.readOnlyCause(); ro != nil {
		err = &ReadOnlyError{Cause: ro}
	}
	e.health.halt("halt")
	return err
}

// Close checkpoints and shuts the engine down. Shutdown is best-effort
// and always runs to completion — logs and devices are closed even
// after earlier steps fail — and the returned error aggregates every
// failure via errors.Join (errors.Is sees each). An engine that is
// ReadOnly reports its sticky root cause (errors.Is(err, ErrReadOnly))
// and skips the final checkpoint, which could never succeed against a
// poisoned WAL. See doc.go for the shutdown contract.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	e.stopCheckpointLoop()
	if e.cfg.ILMEnabled {
		e.packer.Stop()
	}
	e.gc.Stop()
	var errs []error
	errs = append(errs, e.takeCheckpointFailure())
	if ro := e.health.readOnlyCause(); ro != nil {
		errs = append(errs, &ReadOnlyError{Cause: ro})
	} else {
		errs = append(errs, e.checkpoint())
	}
	errs = append(errs, e.syslog.Close(), e.imrslog.Close())
	if e.ownsDevices {
		errs = append(errs, e.dataDev.Close())
	}
	e.health.halt("close")
	return errors.Join(errs...)
}

// ReleaseStorage closes a halted engine's log and device handles.
// Halt deliberately leaves them open (it simulates a crash, and
// crash-media tests reuse the backends across incarnations), but a
// node restarting a Dir-backed shard in place must release the old
// incarnation's file descriptors before the new one opens the same
// paths. Only valid after Halt/Close.
func (e *Engine) ReleaseStorage() error {
	if !e.closed.Load() {
		return fmt.Errorf("core: release storage: engine still running")
	}
	var errs []error
	// CloseBackend, not Close: a halted log's buffered tail must NOT be
	// flushed — its committers were already told they failed.
	errs = append(errs, e.syslog.CloseBackend(), e.imrslog.CloseBackend())
	if e.ownsDevices {
		errs = append(errs, e.dataDev.Close())
	}
	return errors.Join(errs...)
}

// Clock exposes the database commit timestamp (harness, tests).
func (e *Engine) Clock() *txn.Clock { return e.clock }

// Store exposes the IMRS store (harness, tests).
func (e *Engine) Store() *imrs.Store { return e.store }

// ColdStore exposes the columnar cold store (harness, tests).
func (e *Engine) ColdStore() *colseg.Store { return e.cold }

// Packer exposes the pack subsystem (harness, tests).
func (e *Engine) Packer() *pack.Packer { return e.packer }

// Tuner exposes the auto-partition tuner (harness, tests).
func (e *Engine) Tuner() *ilm.Tuner { return e.tuner }

// TSF exposes the timestamp filter (harness, tests).
func (e *Engine) TSF() *ilm.TSF { return e.tsf }

// Queues exposes the pack queue set (harness: Figure 8 analysis).
func (e *Engine) Queues() *pack.QueueSet { return e.queues }

// ILMState returns the ILM partition state for a partition id.
func (e *Engine) ILMState(id rid.PartitionID) *ilm.PartitionState { return e.ilmReg.Get(id) }

// BufferPool exposes the buffer cache (harness, tests).
func (e *Engine) BufferPool() *buffer.Pool { return e.pool }

// Catalog exposes table metadata.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// CreateTable creates a table with an implicit unique primary-key index
// (with IMRS hash fast path) plus any secondary indexes, and checkpoints
// so the DDL is durable.
func (e *Engine) CreateTable(name string, schema *row.Schema, pkCols []string,
	spec catalog.PartitionSpec, indexes []catalog.IndexSpec) (*catalog.Table, error) {
	if e.closed.Load() {
		return nil, ErrEngineClosed
	}
	t, err := e.cat.CreateTable(name, schema, pkCols, spec, indexes)
	if err != nil {
		return nil, err
	}
	if _, err := e.mountTable(t, true); err != nil {
		return nil, err
	}
	if err := e.checkpoint(); err != nil {
		return nil, err
	}
	return t, nil
}

// DropTable removes a table: the catalog entry disappears (with its
// partition ids tombstoned so recovery skips their log records), the
// runtime unmounts, live IMRS entries and pack queues for its
// partitions are released, and a checkpoint makes the drop durable —
// crash before the checkpoint and the table simply still exists.
//
// The engine quiesces transactions (the checkpoint lock, held shared by
// every transaction and pack relocation for its lifetime) for the
// unmount+purge window, so no in-flight transaction can observe a
// half-dropped table. On-disk heap and index pages of the dropped table
// are not reclaimed (there is no page free list); they become garbage
// the next log compaction no longer references.
func (e *Engine) DropTable(name string) error {
	if e.closed.Load() {
		return ErrEngineClosed
	}
	e.quiesce()
	t, err := e.cat.DropTable(name)
	if err != nil {
		e.ckptMu.Unlock()
		return err
	}
	droppedParts := make(map[rid.PartitionID]bool, len(t.Partitions))
	for _, p := range t.Partitions {
		droppedParts[p.ID] = true
	}
	e.editRegistry(func(r *registry) {
		delete(r.tables, name)
		delete(r.byID, t.ID)
		for id := range droppedParts {
			delete(r.parts, id)
		}
	})
	// Release the table's live IMRS footprint: unlink from the pack
	// queues, unpublish from the RID map, and free the row versions.
	// Retired (deleted) entries already in the GC pipeline are not in
	// the RID map and flow out through normal reclamation.
	var victims []*imrs.Entry
	e.rmap.Range(func(r rid.RID, en *imrs.Entry) bool {
		if droppedParts[r.Partition()] {
			victims = append(victims, en)
		}
		return true
	})
	for _, en := range victims {
		e.queues.Remove(en)
		e.rmap.Delete(en.RID, en)
		e.store.RemoveEntry(en)
	}
	for id := range droppedParts {
		e.queues.DropPartition(id)
		e.ilmReg.Unregister(id)
	}
	e.ckptMu.Unlock()
	return e.checkpoint()
}

// mountTable builds the runtime for a catalog table. When fresh is true,
// new B-trees are allocated; otherwise trees are loaded from persisted
// roots (recovery re-news them separately).
func (e *Engine) mountTable(t *catalog.Table, fresh bool) (*tableRT, error) {
	rt := &tableRT{cat: t}
	for _, p := range t.Partitions {
		var h *heap.Heap
		if fresh {
			h = heap.New(p.ID, e.pool)
		} else {
			h = heap.Restore(p.ID, e.pool, p.FirstPage, p.LastPage)
		}
		ps := e.ilmReg.Register(p.ID, p.Name())
		ps.ContentionFn = h.Contention.Load
		if !e.cfg.ILMEnabled {
			// ILM_OFF: everything goes to (and stays in) the IMRS.
			ps.Pin(true)
		}
		prt := &partRT{cat: p, heap: h, ilm: ps}
		rt.parts = append(rt.parts, prt)
	}
	for _, def := range t.Indexes {
		var tr *btree.Tree
		var err error
		if fresh {
			tr, err = btree.New(e.pool)
			if err != nil {
				return nil, err
			}
			def.Root = tr.Root()
		} else {
			tr = btree.Load(e.pool, def.Root)
		}
		ix := &indexRT{def: def, tree: tr}
		if def.Hash && !e.cfg.DisableHashIndex {
			ix.hash = hash.New(0)
		}
		rt.indexes = append(rt.indexes, ix)
	}
	// Feed B+tree latch contention into each partition's ILM signal
	// alongside the heap latch waits (paper Section V-D). The closure
	// reads ix.tree at sample time rather than capturing the trees:
	// recovery swaps fresh trees into the indexRTs after mounting.
	indexWaits := func() int64 {
		var n int64
		for _, ix := range rt.indexes {
			n += ix.tree.LatchWaits()
		}
		return n
	}
	for _, prt := range rt.parts {
		prt.ilm.IndexContentionFn = indexWaits
	}
	e.editRegistry(func(r *registry) {
		r.tables[t.Name] = rt
		r.byID[t.ID] = rt
		for _, prt := range rt.parts {
			r.parts[prt.cat.ID] = prt
		}
	})
	return rt, nil
}

// PinTable applies the user override the paper's conclusion sketches:
// inMemory=true pins every partition of the table fully in-memory (the
// tuner never disables it); inMemory=false pins it out of the IMRS.
func (e *Engine) PinTable(name string, inMemory bool) error {
	rt, err := e.table(name)
	if err != nil {
		return err
	}
	for _, p := range rt.parts {
		p.ilm.Pin(inMemory)
	}
	return nil
}

// UnpinTable removes any user override, returning the table's
// partitions to auto-tuning control.
func (e *Engine) UnpinTable(name string) error {
	rt, err := e.table(name)
	if err != nil {
		return err
	}
	for _, p := range rt.parts {
		p.ilm.Unpin()
	}
	return nil
}

// registry is the engine's mounted tables by name and by id, and their
// partitions by id. It is copy-on-write: every statement and row reads
// it without a lock (the imrs.Store.Part pattern); DDL and recovery,
// which change it a few times per run, publish a changed copy under
// e.mu.
type registry struct {
	tables map[string]*tableRT
	byID   map[uint32]*tableRT
	parts  map[rid.PartitionID]*partRT
}

// editRegistry publishes a copy of the registry changed by edit.
func (e *Engine) editRegistry(edit func(r *registry)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.reg.Load()
	r := &registry{tables: maps.Clone(old.tables), byID: maps.Clone(old.byID), parts: maps.Clone(old.parts)}
	edit(r)
	e.reg.Store(r)
}

// table resolves a table runtime by name.
func (e *Engine) table(name string) (*tableRT, error) {
	rt := e.reg.Load().tables[name]
	if rt == nil {
		return nil, fmt.Errorf("core: no such table %q", name)
	}
	return rt, nil
}

func (e *Engine) partByID(id rid.PartitionID) *partRT { return e.reg.Load().parts[id] }

// Checkpoint quiesces transactions, flushes both logs and all dirty
// pages, and embeds a catalog snapshot in syslogs. IMRS data is NOT
// written out — it recovers purely from sysimrslogs (paper Section II).
// If the background checkpoint loop has been failing repeatedly, the
// pending sticky error is surfaced here first (and cleared, so this
// explicit retry gets a fresh attempt on the next call).
func (e *Engine) Checkpoint() error {
	if err := e.takeCheckpointFailure(); err != nil {
		return err
	}
	return e.checkpoint()
}

// checkpoint is the internal entry point (background loop, CreateTable):
// it never consumes the sticky background-failure error, which is
// reserved for the user-facing Checkpoint/Close calls.
func (e *Engine) checkpoint() error {
	e.quiesce()
	defer e.ckptMu.Unlock()
	return e.checkpointLocked()
}

// quiesce takes ckptMu exclusively, its Lock pending beside no other
// engine's that shares the gate (ShareQuiesceGate).
func (e *Engine) quiesce() {
	gate := e.quiesceGate.Load()
	gate.Lock()
	e.ckptMu.Lock()
	gate.Unlock()
}

// ShareQuiesceGate makes quiesce wait at gate. The shards of a node share
// one: two pending Locks, which hold back new readers, would deadlock
// against two cross-shard transactions that each hold one shard and
// begin on the other (DESIGN.md §12). Call it right after Open.
func (e *Engine) ShareQuiesceGate(gate *sync.Mutex) { e.quiesceGate.Store(gate) }

// takeCheckpointFailure returns (and clears) the sticky error once
// ckptFailThreshold consecutive checkpoints have failed.
func (e *Engine) takeCheckpointFailure() error {
	e.ckptFailMu.Lock()
	defer e.ckptFailMu.Unlock()
	if e.ckptConsecFail < ckptFailThreshold || e.ckptLastErr == nil {
		return nil
	}
	err := fmt.Errorf("core: %d consecutive background checkpoints failed, last: %w",
		e.ckptConsecFail, e.ckptLastErr)
	e.ckptConsecFail = 0
	e.ckptLastErr = nil
	return err
}

// noteCheckpoint records a checkpoint attempt's outcome and feeds the
// health FSM: a ckptFailThreshold streak degrades the engine (cleared
// by the next success), and a failure caused by WAL poisoning forces
// ReadOnly.
func (e *Engine) noteCheckpoint(err error) {
	if err == nil {
		e.ckptCompleted.Add(1)
		e.ckptFailMu.Lock()
		e.ckptConsecFail = 0
		e.ckptLastErr = nil
		e.ckptFailMu.Unlock()
		e.health.setCause(causeCheckpoint, false, "")
		return
	}
	e.ckptFailed.Add(1)
	e.ckptFailMu.Lock()
	e.ckptConsecFail++
	streak := e.ckptConsecFail
	e.ckptLastErr = err
	e.ckptFailMu.Unlock()
	if streak >= ckptFailThreshold {
		e.health.setCause(causeCheckpoint, true,
			fmt.Sprintf("%d consecutive checkpoint failures, last: %v", streak, err))
	}
	e.notePoison() // callers hold ckptMu exclusively
}

func (e *Engine) checkpointLocked() (err error) {
	defer func() { e.noteCheckpoint(err) }()
	// The retrier covers transient failures that escaped the lower
	// retry layers (or arose between them); exhausted/permanent errors
	// pass straight through.
	return e.ckptRetrier.Do(e.checkpointBody)
}

func (e *Engine) checkpointBody() error {
	// Update persisted heap chains and index roots.
	for _, rt := range e.reg.Load().tables {
		for _, p := range rt.parts {
			p.cat.FirstPage, p.cat.LastPage = p.heap.Pages()
		}
		for _, ix := range rt.indexes {
			ix.def.Root = ix.tree.Root()
		}
	}

	if err := e.syslog.FlushAll(); err != nil {
		return err
	}
	if err := e.imrslog.FlushAll(); err != nil {
		return err
	}
	if err := e.pool.FlushAll(); err != nil {
		return err
	}
	blob, err := e.cat.EncodeSnapshot()
	if err != nil {
		return err
	}
	// The checkpoint record also pins the current sysimrslogs generation
	// (in TxnID): recovery opens exactly that generation, which is what
	// makes log compaction crash-atomic.
	rec := wal.Record{Type: wal.RecCheckpoint, TxnID: e.imrsGen, CommitTS: e.clock.Now(), After: blob}
	lsn, err := e.syslog.Append(&rec)
	if err != nil {
		return err
	}
	return e.syslog.Flush(lsn)
}

// reclaimEntry is the GC hook: unpublish a dead entry everywhere before
// its memory is released.
func (e *Engine) reclaimEntry(en *imrs.Entry) {
	e.rmap.Delete(en.RID, en)
	e.queues.Remove(en)
	// Hash index entries are removed by the commit paths that killed the
	// entry (delete/pack); nothing further here.
}
