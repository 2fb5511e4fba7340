// Package btrim is the public API of the BTrim reproduction: a hybrid
// storage engine that keeps hot rows in an In-Memory Row Store (IMRS)
// and cold rows in a traditional page store, with workload-driven
// information life-cycle management (ILM) deciding — per row, per
// operation — where data lives, and a background Pack subsystem
// relocating cold rows out of memory.
//
// Quick start:
//
//	db, err := btrim.Open(btrim.Config{IMRSCacheBytes: 64 << 20})
//	defer db.Close()
//	err = db.CreateTable(btrim.TableSpec{
//		Name:       "accounts",
//		Columns:    []btrim.Column{{Name: "id", Type: btrim.Int64Type}, {Name: "balance", Type: btrim.Float64Type}},
//		PrimaryKey: []string{"id"},
//	})
//	tx := db.Begin()
//	tx.Insert("accounts", btrim.Values(btrim.Int64(1), btrim.Float64(100)))
//	tx.Commit()
package btrim

import (
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/row"
)

// ColumnType enumerates supported column types.
type ColumnType uint8

// Column types.
const (
	Int64Type ColumnType = iota + 1
	Float64Type
	StringType
	BytesType
)

// Column declares one table column.
type Column struct {
	Name string
	Type ColumnType
}

// PartitionKind selects a partitioning scheme.
type PartitionKind uint8

// Partitioning schemes: a table is a single partition by default; hash
// and range partitioning split it, and every ILM decision then applies
// per partition (paper Section V).
const (
	PartitionNone PartitionKind = iota
	PartitionHash
	PartitionRange
)

// PartitionSpec describes table partitioning.
type PartitionSpec struct {
	Kind          PartitionKind
	Column        string
	NumPartitions int     // hash
	Bounds        []int64 // range: sorted upper bounds
}

// IndexSpec declares a secondary index.
type IndexSpec struct {
	Name    string
	Columns []string
	Unique  bool
}

// TableSpec declares a table. The primary key gets an implicit unique
// B-tree index with an IMRS hash fast path.
type TableSpec struct {
	Name       string
	Columns    []Column
	PrimaryKey []string
	Partition  PartitionSpec
	Indexes    []IndexSpec
}

// Config configures a database. Zero values take engine defaults.
type Config struct {
	// Dir selects file-backed storage; empty means in-memory devices.
	Dir string
	// IMRSCacheBytes sizes the in-memory row store.
	IMRSCacheBytes int64
	// BufferPoolPages sizes the page-store buffer cache.
	BufferPoolPages int
	// DisableILM turns off ILM (the paper's ILM_OFF baseline: everything
	// lives in the IMRS, nothing is packed).
	DisableILM bool
	// SteadyCacheUtilization is the pack target (default 0.70).
	SteadyCacheUtilization float64
	// PackThreads is the background pack worker count.
	PackThreads int
	// TuningWindowTxns overrides the auto-partition-tuning window (in
	// committed transactions); 0 keeps the default.
	TuningWindowTxns uint64
	// CheckpointEvery enables periodic background checkpoints.
	CheckpointEvery time.Duration
	// RecoveryThreads bounds the worker pool for the parallel recovery
	// phases at Open (0 = GOMAXPROCS, 1 = serial recovery).
	RecoveryThreads int
	// ReadLatency/WriteLatency model device latency for in-memory devices.
	ReadLatency, WriteLatency time.Duration

	// DisableGroupCommit turns off the group-commit pipeline: every
	// committer then syncs the logs itself (higher commit latency under
	// concurrency; useful as a baseline).
	DisableGroupCommit bool
	// CommitCoalesceDelay makes the commit flusher linger this long to
	// coalesce more committers per log sync. 0 flushes immediately;
	// batching still arises while a sync is in flight.
	CommitCoalesceDelay time.Duration
	// CommitMaxBatchBytes cuts a coalesce delay short once this many
	// bytes of log are buffered.
	CommitMaxBatchBytes int

	// DisableColdStore reverts the packer to slotted heap pages: frozen
	// rows are written row-wise instead of into compressed column
	// segments, as the paper does (reads stay cold-store aware so a
	// database created with the cold store on recovers correctly).
	DisableColdStore bool
	// ColdSegmentRows caps rows per column segment (0 keeps the default;
	// values are clamped to the format maximum).
	ColdSegmentRows int

	// Shards selects the sharded multi-engine node for OpenSharded: the
	// database becomes Shards independent engines behind a
	// hash-partitioned primary-key router, each with its own WALs, GC,
	// pack loops and health state (DESIGN.md §12). 0 or 1 means one
	// shard. Ignored by Open.
	Shards int

	// GCWorkers sets the IMRS-GC worker count (0 keeps the default).
	GCWorkers int
}

// DB is an open database.
type DB struct {
	eng *core.Engine
}

// coreConfig maps the public configuration onto the engine's.
func (cfg Config) coreConfig() core.Config {
	ec := core.DefaultConfig()
	ec.Dir = cfg.Dir
	if cfg.IMRSCacheBytes > 0 {
		ec.IMRSCacheBytes = cfg.IMRSCacheBytes
	}
	if cfg.BufferPoolPages > 0 {
		ec.BufferPoolPages = cfg.BufferPoolPages
	}
	ec.ILMEnabled = !cfg.DisableILM
	if cfg.SteadyCacheUtilization > 0 {
		ec.ILM.SteadyCacheUtilization = cfg.SteadyCacheUtilization
	}
	if cfg.PackThreads > 0 {
		ec.PackThreads = cfg.PackThreads
	}
	if cfg.TuningWindowTxns > 0 {
		ec.ILM.TuningWindowTxns = cfg.TuningWindowTxns
	}
	ec.CheckpointEvery = cfg.CheckpointEvery
	ec.RecoveryThreads = cfg.RecoveryThreads
	ec.ReadLatency = cfg.ReadLatency
	ec.WriteLatency = cfg.WriteLatency
	ec.DisableGroupCommit = cfg.DisableGroupCommit
	ec.CommitCoalesceDelay = cfg.CommitCoalesceDelay
	ec.CommitMaxBatchBytes = cfg.CommitMaxBatchBytes
	ec.DisableColdStore = cfg.DisableColdStore
	ec.ColdSegmentRows = cfg.ColdSegmentRows
	if cfg.GCWorkers > 0 {
		ec.GCWorkers = cfg.GCWorkers
	}
	return ec
}

// Open creates or recovers a database.
func Open(cfg Config) (*DB, error) {
	eng, err := core.Open(cfg.coreConfig())
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng}, nil
}

// Close checkpoints and shuts down.
func (db *DB) Close() error { return db.eng.Close() }

// Engine exposes the underlying engine for advanced instrumentation
// (stats snapshots, manual checkpoints). Most applications never need it.
func (db *DB) Engine() *core.Engine { return db.eng }

// compile lowers the public table spec to the catalog's vocabulary.
func (spec TableSpec) compile() (*row.Schema, catalog.PartitionSpec, []catalog.IndexSpec, error) {
	cols := make([]row.Column, len(spec.Columns))
	for i, c := range spec.Columns {
		cols[i] = row.Column{Name: c.Name, Kind: row.Kind(c.Type)}
	}
	schema, err := row.NewSchema(cols...)
	if err != nil {
		return nil, catalog.PartitionSpec{}, nil, err
	}
	ixs := make([]catalog.IndexSpec, len(spec.Indexes))
	for i, ix := range spec.Indexes {
		ixs[i] = catalog.IndexSpec{Name: ix.Name, Cols: ix.Columns, Unique: ix.Unique}
	}
	return schema, catalog.PartitionSpec{
		Kind:          catalog.PartitionKind(spec.Partition.Kind),
		Column:        spec.Partition.Column,
		NumPartitions: spec.Partition.NumPartitions,
		Bounds:        spec.Partition.Bounds,
	}, ixs, nil
}

// CreateTable creates a table and checkpoints the DDL.
func (db *DB) CreateTable(spec TableSpec) error {
	schema, part, ixs, err := spec.compile()
	if err != nil {
		return err
	}
	_, err = db.eng.CreateTable(spec.Name, schema, spec.PrimaryKey, part, ixs)
	return err
}

// DropTable removes a table and all its rows, and checkpoints the DDL
// so the drop survives restart. The table's on-disk pages are not
// reclaimed (there is no page free list); its log records are skipped
// at recovery.
func (db *DB) DropTable(name string) error { return db.eng.DropTable(name) }

// Checkpoint forces a checkpoint (flushes dirty pages, embeds a catalog
// snapshot in the log).
func (db *DB) Checkpoint() error { return db.eng.Checkpoint() }

// CompactLog rewrites the IMRS redo log to hold exactly the live
// in-memory rows, bounding its growth (available on file-backed
// databases; in-memory ones need an explicit log factory).
func (db *DB) CompactLog() error { return db.eng.CompactIMRSLog() }

// PinTable overrides ILM for a table: inMemory=true keeps it fully
// memory-resident (never tuned out, though extreme cache pressure can
// still spill new rows); inMemory=false keeps it out of the IMRS
// entirely. This is the "fully in-memory tables" user configuration the
// paper's conclusion proposes.
func (db *DB) PinTable(name string, inMemory bool) error {
	return db.eng.PinTable(name, inMemory)
}

// UnpinTable returns a pinned table to automatic ILM control.
func (db *DB) UnpinTable(name string) error { return db.eng.UnpinTable(name) }

// Begin starts a transaction.
func (db *DB) Begin() *Tx { return &Tx{tx: db.eng.Begin()} }

// View runs fn in a transaction that is always committed (intended for
// reads; commit of a read-only transaction is free).
func (db *DB) View(fn func(*Tx) error) error {
	tx := db.Begin()
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// Update runs fn in a transaction, committing on success and aborting
// on error.
func (db *DB) Update(fn func(*Tx) error) error {
	tx := db.Begin()
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}
