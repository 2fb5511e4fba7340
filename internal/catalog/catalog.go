// Package catalog holds table, partition and index metadata, plus the
// gob snapshot the engine embeds in checkpoint records so that recovery
// can reattach heaps and restore ILM-relevant identity (partition ids,
// virtual RID sequences, index definitions).
//
// Partitioning follows the paper's Section V convention: an
// unpartitioned table is a single-partition table, and every ILM
// mechanism operates per partition.
package catalog

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"repro/internal/rid"
	"repro/internal/row"
)

// PartitionKind selects how rows map to partitions.
type PartitionKind uint8

// Partitioning schemes.
const (
	PartitionNone  PartitionKind = iota // single partition
	PartitionHash                       // hash of one int64/string column
	PartitionRange                      // int64 column against sorted bounds
)

// PartitionSpec describes a table's partitioning.
type PartitionSpec struct {
	Kind   PartitionKind
	Column string
	// NumPartitions for PartitionHash.
	NumPartitions int
	// Bounds for PartitionRange: row goes to the first partition whose
	// bound is > value; one extra partition catches the rest.
	Bounds []int64
}

// IndexSpec describes an index at table-creation time.
type IndexSpec struct {
	Name   string
	Cols   []string
	Unique bool
	// Hash adds the IMRS hash fast path (meaningful for unique indexes).
	Hash bool
}

// Index is a created index. Root is the B-tree root page id, updated by
// the engine and persisted via snapshots.
type Index struct {
	Name    string
	Cols    []string
	ColOrds []int
	Unique  bool
	Hash    bool
	Root    uint32
}

// Partition is one data partition of a table.
type Partition struct {
	ID    rid.PartitionID
	Table *Table
	Num   int // position within the table

	// Heap page chain (maintained by the engine, persisted in snapshots).
	FirstPage, LastPage uint32

	// nextVirtual allocates virtual RID sequence numbers for rows
	// inserted straight into the IMRS.
	nextVirtual atomic.Uint64
}

// Name returns "table" for single-partition tables, "table/pN" otherwise.
func (p *Partition) Name() string {
	if len(p.Table.Partitions) == 1 {
		return p.Table.Name
	}
	return fmt.Sprintf("%s/p%d", p.Table.Name, p.Num)
}

// NextVirtualRID returns a fresh virtual RID for this partition.
func (p *Partition) NextVirtualRID() rid.RID {
	return rid.NewVirtual(p.ID, p.nextVirtual.Add(1))
}

// BumpVirtualSeq raises the virtual sequence to at least seq (recovery).
func (p *Partition) BumpVirtualSeq(seq uint64) {
	for {
		cur := p.nextVirtual.Load()
		if cur >= seq || p.nextVirtual.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// Table is a named relation.
type Table struct {
	ID         uint32
	Name       string
	Schema     *row.Schema
	PKCols     []string
	PKOrds     []int
	Spec       PartitionSpec
	partColOrd int
	Partitions []*Partition
	Indexes    []*Index
}

// PartitionFor returns the partition a row belongs to.
func (t *Table) PartitionFor(r row.Row) (*Partition, error) {
	switch t.Spec.Kind {
	case PartitionNone:
		return t.Partitions[0], nil
	case PartitionHash:
		v := r[t.partColOrd]
		var h uint64
		switch v.Kind() {
		case row.KindInt64:
			h = uint64(v.Int())
		case row.KindString:
			for _, b := range []byte(v.Str()) {
				h = h*1099511628211 + uint64(b)
			}
		default:
			return nil, fmt.Errorf("catalog: cannot hash-partition on %v column", v.Kind())
		}
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		return t.Partitions[h%uint64(len(t.Partitions))], nil
	case PartitionRange:
		v := r[t.partColOrd]
		if v.Kind() != row.KindInt64 {
			return nil, fmt.Errorf("catalog: range partitioning needs int64 column")
		}
		x := v.Int()
		for i, b := range t.Spec.Bounds {
			if x < b {
				return t.Partitions[i], nil
			}
		}
		return t.Partitions[len(t.Spec.Bounds)], nil
	default:
		return nil, fmt.Errorf("catalog: unknown partition kind %d", t.Spec.Kind)
	}
}

// Index returns the named index, or nil.
func (t *Table) Index(name string) *Index {
	for _, ix := range t.Indexes {
		if ix.Name == name {
			return ix
		}
	}
	return nil
}

// PrimaryIndex returns the index over the primary key (always the first
// index, created implicitly).
func (t *Table) PrimaryIndex() *Index { return t.Indexes[0] }

// Catalog is the set of tables plus id allocation state.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	byID   map[uint32]*Table
	// parts is the partitions by id. It is copy-on-write: PartitionByID
	// reads it without a lock (IMRS replay resolves one per record), and
	// DDL publishes a changed copy under mu.
	parts      atomic.Pointer[map[rid.PartitionID]*Partition]
	nextTable  uint32
	nextPartID uint32
	// dropped holds the partition ids of every dropped table, persisted
	// in snapshots: the logs are never rewritten at DROP time, so
	// recovery consults this set to skip records that reference a
	// partition that no longer exists.
	dropped map[uint32]bool
	// version counts DDL operations (create/drop). Cached query plans
	// stamp the version they compiled against and recompile when it
	// moves, so a plan can never run against a stale schema.
	version atomic.Uint64
}

// New returns an empty catalog.
func New() *Catalog {
	c := &Catalog{
		tables:     make(map[string]*Table),
		byID:       make(map[uint32]*Table),
		nextTable:  1,
		nextPartID: 1,
		dropped:    make(map[uint32]bool),
	}
	c.parts.Store(&map[rid.PartitionID]*Partition{})
	return c
}

// Version returns the DDL version: it increases on every CreateTable
// and DropTable. Plan caches compare stamps against it.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// CreateTable registers a table. The primary key columns get an implicit
// unique index named "<table>_pk" (with the IMRS hash fast path).
func (c *Catalog) CreateTable(name string, schema *row.Schema, pkCols []string, spec PartitionSpec, indexes []IndexSpec) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("catalog: empty table name")
	}
	pkOrds, err := schema.Ordinals(pkCols...)
	if err != nil {
		return nil, fmt.Errorf("catalog: table %s primary key: %w", name, err)
	}
	nParts := 1
	partColOrd := 0
	switch spec.Kind {
	case PartitionNone:
	case PartitionHash:
		if spec.NumPartitions < 1 {
			return nil, fmt.Errorf("catalog: hash partitioning needs NumPartitions >= 1")
		}
		nParts = spec.NumPartitions
		if partColOrd = schema.Ordinal(spec.Column); partColOrd < 0 {
			return nil, fmt.Errorf("catalog: unknown partition column %q", spec.Column)
		}
	case PartitionRange:
		nParts = len(spec.Bounds) + 1
		if partColOrd = schema.Ordinal(spec.Column); partColOrd < 0 {
			return nil, fmt.Errorf("catalog: unknown partition column %q", spec.Column)
		}
	default:
		return nil, fmt.Errorf("catalog: unknown partition kind %d", spec.Kind)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[name]; dup {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	t := &Table{
		ID:         c.nextTable,
		Name:       name,
		Schema:     schema,
		PKCols:     append([]string(nil), pkCols...),
		PKOrds:     pkOrds,
		Spec:       spec,
		partColOrd: partColOrd,
	}
	c.nextTable++
	parts := maps.Clone(*c.parts.Load())
	for i := 0; i < nParts; i++ {
		p := &Partition{
			ID:        rid.PartitionID(c.nextPartID),
			Table:     t,
			Num:       i,
			FirstPage: 0xFFFFFFFF,
			LastPage:  0xFFFFFFFF,
		}
		c.nextPartID++
		t.Partitions = append(t.Partitions, p)
		parts[p.ID] = p
	}

	all := append([]IndexSpec{{Name: name + "_pk", Cols: pkCols, Unique: true, Hash: true}}, indexes...)
	for _, spec := range all {
		ords, err := schema.Ordinals(spec.Cols...)
		if err != nil {
			return nil, fmt.Errorf("catalog: index %s: %w", spec.Name, err)
		}
		t.Indexes = append(t.Indexes, &Index{
			Name:    spec.Name,
			Cols:    append([]string(nil), spec.Cols...),
			ColOrds: ords,
			Unique:  spec.Unique,
			Hash:    spec.Hash && spec.Unique,
		})
	}

	c.tables[name] = t
	c.byID[t.ID] = t
	c.parts.Store(&parts)
	c.version.Add(1)
	return t, nil
}

// DropTable removes a table from the catalog and tombstones its
// partition ids so recovery skips their log records. The caller (the
// engine) owns unmounting the runtime state and making the drop
// durable via a checkpoint.
func (c *Catalog) DropTable(name string) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tables[name]
	if t == nil {
		return nil, fmt.Errorf("catalog: no such table %q", name)
	}
	delete(c.tables, name)
	delete(c.byID, t.ID)
	parts := maps.Clone(*c.parts.Load())
	for _, p := range t.Partitions {
		delete(parts, p.ID)
		c.dropped[uint32(p.ID)] = true
	}
	c.parts.Store(&parts)
	c.version.Add(1)
	return t, nil
}

// DroppedPartition reports whether id belonged to a dropped table.
func (c *Catalog) DroppedPartition(id rid.PartitionID) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.dropped[uint32(id)]
}

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables[name]
}

// TableByID returns the table with id, or nil.
func (c *Catalog) TableByID(id uint32) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.byID[id]
}

// PartitionByID resolves a partition id, or nil.
func (c *Catalog) PartitionByID(id rid.PartitionID) *Partition {
	return (*c.parts.Load())[id]
}

// Tables returns all tables in creation order.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.byID {
		out = append(out, t)
	}
	// byID iteration is unordered; sort by id.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].ID > out[j].ID; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// Partitions returns every partition across all tables.
func (c *Catalog) Partitions() []*Partition {
	var out []*Partition
	for _, t := range c.Tables() {
		out = append(out, t.Partitions...)
	}
	return out
}
