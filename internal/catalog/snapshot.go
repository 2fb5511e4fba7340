package catalog

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/rid"
	"repro/internal/row"
)

// The snapshot types mirror the live catalog in a gob-friendly shape.
// The engine embeds the encoded snapshot in checkpoint records; recovery
// decodes it and rebuilds the catalog before replaying the logs.

type snapColumn struct {
	Name string
	Kind uint8
}

type snapIndex struct {
	Name   string
	Cols   []string
	Unique bool
	Hash   bool
	Root   uint32
}

type snapPartition struct {
	ID          uint32
	FirstPage   uint32
	LastPage    uint32
	NextVirtual uint64
}

type snapTable struct {
	ID         uint32
	Name       string
	Columns    []snapColumn
	PKCols     []string
	SpecKind   uint8
	SpecColumn string
	SpecNum    int
	SpecBounds []int64
	Partitions []snapPartition
	Indexes    []snapIndex
}

type snapshot struct {
	Tables     []snapTable
	NextTable  uint32
	NextPartID uint32
	// Dropped carries the tombstoned partition ids of dropped tables so
	// recovery keeps skipping their log records, and Version the DDL
	// counter so cached plans stay invalidated across restarts. Both
	// fields decode as zero from snapshots written before DROP TABLE
	// existed.
	Dropped []uint32
	Version uint64
}

// EncodeSnapshot serializes the catalog (including heap page chains,
// index roots and virtual RID sequences) for a checkpoint record.
func (c *Catalog) EncodeSnapshot() ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var s snapshot
	s.NextTable = c.nextTable
	s.NextPartID = c.nextPartID
	s.Version = c.version.Load()
	for id := range c.dropped {
		s.Dropped = append(s.Dropped, id)
	}
	// Sort dropped ids for deterministic output.
	for i := 1; i < len(s.Dropped); i++ {
		for j := i; j > 0 && s.Dropped[j-1] > s.Dropped[j]; j-- {
			s.Dropped[j-1], s.Dropped[j] = s.Dropped[j], s.Dropped[j-1]
		}
	}
	for _, t := range c.byID {
		st := snapTable{
			ID:         t.ID,
			Name:       t.Name,
			PKCols:     t.PKCols,
			SpecKind:   uint8(t.Spec.Kind),
			SpecColumn: t.Spec.Column,
			SpecNum:    t.Spec.NumPartitions,
			SpecBounds: t.Spec.Bounds,
		}
		for i := 0; i < t.Schema.NumColumns(); i++ {
			col := t.Schema.Column(i)
			st.Columns = append(st.Columns, snapColumn{Name: col.Name, Kind: uint8(col.Kind)})
		}
		for _, p := range t.Partitions {
			st.Partitions = append(st.Partitions, snapPartition{
				ID:          uint32(p.ID),
				FirstPage:   p.FirstPage,
				LastPage:    p.LastPage,
				NextVirtual: p.nextVirtual.Load(),
			})
		}
		for _, ix := range t.Indexes {
			st.Indexes = append(st.Indexes, snapIndex{
				Name: ix.Name, Cols: ix.Cols, Unique: ix.Unique, Hash: ix.Hash, Root: ix.Root,
			})
		}
		s.Tables = append(s.Tables, st)
	}
	// Sort tables by id for deterministic output.
	for i := 1; i < len(s.Tables); i++ {
		for j := i; j > 0 && s.Tables[j-1].ID > s.Tables[j].ID; j-- {
			s.Tables[j-1], s.Tables[j] = s.Tables[j], s.Tables[j-1]
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
		return nil, fmt.Errorf("catalog: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot rebuilds a catalog from an encoded snapshot.
func DecodeSnapshot(data []byte) (*Catalog, error) {
	var s snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return nil, fmt.Errorf("catalog: decode snapshot: %w", err)
	}
	c := New()
	c.nextTable = s.NextTable
	c.nextPartID = s.NextPartID
	c.version.Store(s.Version)
	for _, id := range s.Dropped {
		c.dropped[id] = true
	}
	for _, st := range s.Tables {
		cols := make([]row.Column, len(st.Columns))
		for i, sc := range st.Columns {
			cols[i] = row.Column{Name: sc.Name, Kind: row.Kind(sc.Kind)}
		}
		schema, err := row.NewSchema(cols...)
		if err != nil {
			return nil, fmt.Errorf("catalog: table %s: %w", st.Name, err)
		}
		pkOrds, err := schema.Ordinals(st.PKCols...)
		if err != nil {
			return nil, fmt.Errorf("catalog: table %s: %w", st.Name, err)
		}
		t := &Table{
			ID:     st.ID,
			Name:   st.Name,
			Schema: schema,
			PKCols: st.PKCols,
			PKOrds: pkOrds,
			Spec: PartitionSpec{
				Kind:          PartitionKind(st.SpecKind),
				Column:        st.SpecColumn,
				NumPartitions: st.SpecNum,
				Bounds:        st.SpecBounds,
			},
		}
		if t.Spec.Kind != PartitionNone {
			t.partColOrd = schema.Ordinal(t.Spec.Column)
			if t.partColOrd < 0 {
				return nil, fmt.Errorf("catalog: table %s: partition column %q missing", st.Name, t.Spec.Column)
			}
		}
		for i, sp := range st.Partitions {
			p := &Partition{
				ID:        rid.PartitionID(sp.ID),
				Table:     t,
				Num:       i,
				FirstPage: sp.FirstPage,
				LastPage:  sp.LastPage,
			}
			p.nextVirtual.Store(sp.NextVirtual)
			t.Partitions = append(t.Partitions, p)
			(*c.parts.Load())[p.ID] = p // c is not shared yet
		}
		for _, si := range st.Indexes {
			ords, err := schema.Ordinals(si.Cols...)
			if err != nil {
				return nil, fmt.Errorf("catalog: index %s: %w", si.Name, err)
			}
			t.Indexes = append(t.Indexes, &Index{
				Name: si.Name, Cols: si.Cols, ColOrds: ords,
				Unique: si.Unique, Hash: si.Hash, Root: si.Root,
			})
		}
		c.tables[t.Name] = t
		c.byID[t.ID] = t
	}
	return c, nil
}
