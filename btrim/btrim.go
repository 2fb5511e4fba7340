// Package btrim is the public API of the BTrim reproduction: a hybrid
// storage engine that keeps hot rows in an In-Memory Row Store (IMRS)
// and cold rows in a traditional page store, with workload-driven
// information life-cycle management (ILM) deciding — per row, per
// operation — where data lives, and a background Pack subsystem
// relocating cold rows out of memory.
//
// A database is a node of one or more shards (Config.Shards): each
// shard is an independent engine with its own devices, logs and
// life-cycle loops, and rows route to shards by a hash of their primary
// key. One shard is the default and costs nothing extra; transactions
// that write several shards commit with two-phase commit (DESIGN.md
// §12).
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
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/row"
	"repro/internal/shard"
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
	// RecoveryThreads bounds each shard's worker pool for the parallel
	// recovery phases at Open (0 = GOMAXPROCS, 1 = serial recovery); the
	// shards recover concurrently.
	RecoveryThreads int
	// ReadLatency/WriteLatency model device latency for in-memory devices.
	ReadLatency, WriteLatency time.Duration

	// DisableColdStore reverts the packer to slotted heap pages: frozen
	// rows are written row-wise instead of into compressed column
	// segments, as the paper does (reads stay cold-store aware so a
	// database created with the cold store on recovers correctly).
	DisableColdStore bool
	// ColdSegmentRows caps rows per column segment (0 keeps the default;
	// values are clamped to the format maximum).
	ColdSegmentRows int

	// Shards is the number of independent engines behind the
	// hash-partitioned primary-key router, each with its own WALs, GC,
	// pack loops and health state (DESIGN.md §12). 0 means whatever Dir
	// already holds, and one shard for a new or in-memory database; a
	// positive count that disagrees with Dir fails Open with
	// ErrLayoutMismatch.
	Shards int
}

// coreConfig maps the public configuration onto one shard's engine
// configuration (Open fills in the per-shard directory and budgets).
func (cfg Config) coreConfig() core.Config {
	ec := core.DefaultConfig()
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
	ec.DisableColdStore = cfg.DisableColdStore
	ec.ColdSegmentRows = cfg.ColdSegmentRows
	return ec
}

// ErrLayoutMismatch reports a Dir whose contents do not match the
// configuration: a different shard count than Config.Shards asks for,
// or the single-engine layout of earlier versions. Open returns it
// before creating or writing anything.
var ErrLayoutMismatch = shard.ErrLayoutMismatch

// DB is an open database: a node of NumShards independent engines —
// each with its own data directory, WAL pair, GC, pack loops and health
// state — behind a hash-partitioned primary-key router. Transactions
// that write one shard commit on that shard's own pipeline;
// transactions spanning shards commit with two-phase commit layered on
// the per-shard group-commit pipelines (DESIGN.md §12).
type DB struct {
	node *shard.Node
}

// ShardedDB is the former name of DB, which bench/ still spells.
// Delete with the next benchmark issue.
type ShardedDB = DB

// Open creates or recovers a database. Explicitly configured memory
// budgets (IMRSCacheBytes, BufferPoolPages) are the node total and
// divide across shards; zero values leave each shard on the engine
// default. With Dir set, shard i lives under Dir/shard-NNN.
func Open(cfg Config) (*DB, error) {
	nShards, err := shard.ResolveShards(cfg.Dir, cfg.Shards)
	if err != nil {
		return nil, err
	}
	base := cfg.coreConfig()
	if cfg.IMRSCacheBytes > 0 {
		base.IMRSCacheBytes = max(cfg.IMRSCacheBytes/int64(nShards), 1<<20)
	}
	if cfg.BufferPoolPages > 0 {
		base.BufferPoolPages = max(cfg.BufferPoolPages/nShards, 64)
	}
	node, err := shard.Open(shard.Config{Shards: nShards, Dir: cfg.Dir, Base: base})
	if err != nil {
		return nil, err
	}
	return &DB{node: node}, nil
}

// WrapNode adapts an explicitly configured shard node — custom
// per-shard media, journal backend, resolver cadence — to the public
// DB surface. The chaos harnesses use it to drive the SQL and wire
// layers over crash-surviving storage.
func WrapNode(n *shard.Node) *DB { return &DB{node: n} }

// Close checkpoints and shuts down every shard.
func (db *DB) Close() error { return db.node.Close() }

// Halt crash-stops every shard without checkpointing (testing).
func (db *DB) Halt() error { return db.node.Halt() }

// HaltShard crash-stops one shard; the others keep serving and
// operations routed to the dead shard fail with ErrShardDown.
func (db *DB) HaltShard(i int) error { return db.node.HaltShard(i) }

// RestartShard recovers one halted (or parked) shard in place from its
// own logs while the rest of the node keeps serving.
func (db *DB) RestartShard(i int) error { return db.node.RestartShard(i) }

// ResolvePending runs one in-doubt resolver pass synchronously and
// returns how many transactions it settled (the background resolver
// does the same on a timer).
func (db *DB) ResolvePending() int { return db.node.ResolvePending() }

// NumShards returns the shard count.
func (db *DB) NumShards() int { return db.node.NumShards() }

// Node exposes the underlying shard node, and through Node().Engine(i)
// each shard's engine, for advanced instrumentation. Most applications
// never need it.
func (db *DB) Node() *shard.Node { return db.node }

// eachShard runs fn on every shard's engine in shard order, stopping at
// the first error.
func (db *DB) eachShard(fn func(*core.Engine) error) error {
	for i := 0; i < db.node.NumShards(); i++ {
		if err := fn(db.node.Engine(i)); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

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

// CreateTable creates the table on every shard and checkpoints the DDL.
func (db *DB) CreateTable(spec TableSpec) error {
	schema, part, ixs, err := spec.compile()
	if err != nil {
		return err
	}
	return db.node.CreateTable(spec.Name, schema, spec.PrimaryKey, part, ixs)
}

// DropTable removes a table and all its rows from every shard, and
// checkpoints the DDL so the drop survives restart. The table's on-disk
// pages are not reclaimed (there is no page free list); its log records
// are skipped at recovery.
func (db *DB) DropTable(name string) error { return db.node.DropTable(name) }

// Checkpoint forces a checkpoint on every shard (flushes dirty pages,
// embeds a catalog snapshot in the log).
func (db *DB) Checkpoint() error { return db.eachShard((*core.Engine).Checkpoint) }

// CompactLog rewrites every shard's IMRS redo log to hold exactly the
// live in-memory rows, bounding its growth (available on file-backed
// databases; in-memory ones need an explicit log factory).
func (db *DB) CompactLog() error { return db.eachShard((*core.Engine).CompactIMRSLog) }

// PinTable overrides ILM for a table on every shard: inMemory=true
// keeps it fully memory-resident (never tuned out, though extreme cache
// pressure can still spill new rows); inMemory=false keeps it out of
// the IMRS entirely. This is the "fully in-memory tables" user
// configuration the paper's conclusion proposes.
func (db *DB) PinTable(name string, inMemory bool) error {
	return db.node.PinTable(name, inMemory)
}

// UnpinTable returns a pinned table to automatic ILM control.
func (db *DB) UnpinTable(name string) error {
	return db.eachShard(func(e *core.Engine) error { return e.UnpinTable(name) })
}

// Begin starts a transaction. Shard participants are created lazily on
// first touch, so a transaction that stays on one shard carries no
// coordination overhead.
func (db *DB) Begin() *Tx { return &Tx{tx: db.node.Begin()} }

// View runs fn in a transaction that is always committed (intended for
// reads; commit of a read-only transaction is free).
func (db *DB) View(fn func(*Tx) error) error { return db.Update(fn) }

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
