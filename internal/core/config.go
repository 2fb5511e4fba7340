// Package core is the BTrim engine: it composes the page store (heaps
// over a buffer cache), the In-Memory Row Store, the RID map, B-tree and
// hash indexes, both transaction logs, the lock manager, IMRS-GC, the
// ILM tuner and the Pack subsystem into a transactional hybrid-storage
// database (paper Section II, Figure 1).
package core

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/fault"
	"repro/internal/ilm"
	"repro/internal/storage/colseg"
	"repro/internal/storage/disk"
	"repro/internal/wal"
)

// Config configures an Engine. Zero-value fields take defaults from
// DefaultConfig; either Dir or the explicit device/backends select the
// storage medium.
type Config struct {
	// Dir, when set, stores the database in files under this directory
	// (data.db, syslogs.log, sysimrslogs.log).
	Dir string

	// Explicit devices (tests and benchmarks). Ignored when Dir is set.
	DataDevice     disk.Device
	SysLogBackend  wal.Backend
	IMRSLogBackend wal.Backend

	// IMRSLogFactory provides backends for sysimrslogs generations and
	// enables CompactIMRSLog (the redo-only log otherwise grows without
	// bound). fresh=true must return an EMPTY backend for a new
	// generation; fresh=false reopens an existing generation during
	// recovery. Generation 0 is the plain IMRSLogBackend. Dir-backed
	// engines get a file-per-generation factory automatically.
	IMRSLogFactory func(gen uint64, fresh bool) (wal.Backend, error)

	// BufferPoolPages is the nominal buffer cache capacity in pages.
	BufferPoolPages int

	// IMRSCacheBytes is the IMRS fragment-cache capacity. The paper's
	// ILM_OFF baseline is approximated by a very large value here with
	// ILMEnabled=false.
	IMRSCacheBytes int64

	// ILM holds the ILM/Pack tunables.
	ILM ilm.Config

	// ILMEnabled selects the paper's ILM_ON mode: storage decisions per
	// row, auto partition tuning, and background pack. When false
	// (ILM_OFF), every ISUD stores into the IMRS and nothing is packed.
	ILMEnabled bool

	// PackThreads is the pack worker count (paper used 12).
	PackThreads int
	// PackInterval is the pack loop wake-up period.
	PackInterval time.Duration

	// LockTimeout bounds row-lock waits (deadlock breaker).
	LockTimeout time.Duration

	// CheckpointEvery, when positive, runs background checkpoints at
	// this period. Checkpoints bound recovery time and, under the
	// no-steal buffer policy, are what makes dirty pages clean and
	// therefore evictable.
	CheckpointEvery time.Duration

	// RecoveryThreads bounds the worker pool for the parallel recovery
	// phases (sysimrslogs replay in lanes by RID, index rebuild by RID
	// map chunk and by index, queue sort). 0 takes GOMAXPROCS; 1
	// recovers serially.
	RecoveryThreads int

	// ReadLatency/WriteLatency apply to the default in-memory device,
	// modelling disk (see DESIGN.md substitutions).
	ReadLatency, WriteLatency time.Duration

	// ShardID identifies this engine inside a sharded node: it is
	// stamped into RecDecide records so participants and journals can
	// scope a global transaction id (which is only unique per
	// coordinator) by the coordinator that issued it. 0 for a
	// standalone engine.
	ShardID uint32

	// TwoPCResolver, when set, resolves in-doubt prepared transactions
	// found during recovery: given the global transaction id and the
	// coordinator shard index from a RecPrepare with no local outcome,
	// it reports the coordinator's durable decision. nil (a standalone
	// engine) maps every in-doubt transaction to TwoPCUnknown, which
	// parks the engine ReadOnly if any exist.
	TwoPCResolver func(gid uint64, coordShard uint32) TwoPCOutcome

	// DisableHashIndex turns off the hash fast path (ablation).
	DisableHashIndex bool

	// DisableColdStore turns off the columnar cold store: the packer
	// reverts to relocating frozen rows into slotted heap pages
	// (the pre-colseg behaviour, and the row-at-a-time scan baseline).
	DisableColdStore bool
	// ColdSegmentRows is the row-count target per cold segment (and the
	// pack-transaction batch size when the cold store is on). 0 takes
	// colseg.DefaultSegmentRows; values above colseg.MaxSegmentRows are
	// clamped.
	ColdSegmentRows int

	// Retry bounds the transient-fault retry loops wrapped around the
	// data device, WAL flushes, and the background checkpoint. Zero
	// fields take the fault package defaults.
	Retry fault.Policy
	// DisableRetry turns the retry layer off entirely: every backend
	// error surfaces on first occurrence (the pre-fault-handling
	// behaviour, and a useful baseline for fault-injection tests that
	// want exact failure counts).
	DisableRetry bool
	// RetrySleep overrides the backoff sleep function (tests and the
	// chaos harness pin it to a no-op for deterministic, fast runs).
	// nil means real time.Sleep.
	RetrySleep func(time.Duration)
}

// DefaultConfig returns a small-footprint default suitable for tests.
func DefaultConfig() Config {
	return Config{
		BufferPoolPages: 1024,
		IMRSCacheBytes:  64 << 20,
		ILM:             ilm.DefaultConfig(),
		ILMEnabled:      true,
		PackThreads:     2,
		PackInterval:    5 * time.Millisecond,
		LockTimeout:     5 * time.Second,
	}
}

func (c *Config) fillDefaults() error {
	d := DefaultConfig()
	if c.BufferPoolPages <= 0 {
		c.BufferPoolPages = d.BufferPoolPages
	}
	if c.IMRSCacheBytes <= 0 {
		c.IMRSCacheBytes = d.IMRSCacheBytes
	}
	if c.ILM.SteadyCacheUtilization == 0 {
		c.ILM = d.ILM
	}
	if c.PackThreads <= 0 {
		c.PackThreads = d.PackThreads
	}
	if c.PackInterval <= 0 {
		c.PackInterval = d.PackInterval
	}
	if c.LockTimeout <= 0 {
		c.LockTimeout = d.LockTimeout
	}
	if c.RecoveryThreads <= 0 {
		c.RecoveryThreads = runtime.GOMAXPROCS(0)
	}
	if c.ColdSegmentRows <= 0 {
		c.ColdSegmentRows = colseg.DefaultSegmentRows
	}
	if c.ColdSegmentRows > colseg.MaxSegmentRows {
		c.ColdSegmentRows = colseg.MaxSegmentRows
	}
	if c.ILM.SteadyCacheUtilization <= 0 || c.ILM.SteadyCacheUtilization >= 1 {
		return fmt.Errorf("core: steady cache utilization %v out of (0,1)", c.ILM.SteadyCacheUtilization)
	}
	return nil
}
