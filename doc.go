// Package repro is the root of a from-scratch Go reproduction of
// "Life Cycle of Transactional Data in In-memory Databases" (ICDE 2018),
// the SAP ASE BTrim hybrid storage architecture: a page-oriented disk
// store plus an In-Memory Row Store (IMRS) with workload-driven ILM
// (information life-cycle management) of hot and cold rows.
//
// The public API lives in package repro/btrim: btrim.Open returns the
// one database type, a node of one or more shards (one by default),
// each shard an independent engine. The engine and all of its
// substrates (buffer cache, slotted pages, two write-ahead logs, RID map,
// B-tree and hash indexes, fragment memory manager, IMRS-GC, ILM tuning
// and the Pack subsystem) live under internal/.
//
// cmd/figures regenerates every table and figure from the paper's
// evaluation section; the repo's benchmark is the separate module under
// bench/ (BENCHMARK.json). See DESIGN.md and EXPERIMENTS.md.
package repro
