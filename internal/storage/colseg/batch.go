package colseg

import (
	"bytes"

	"repro/internal/rid"
	"repro/internal/row"
)

// Vec is one column of a scan batch: dense typed storage with a parallel
// null mask (I64[i]/F64[i]/Str[i] is meaningful iff !Nulls[i]; null slots
// hold zero values so vectorized consumers can read unconditionally).
// Only the slice for the Vec's kind is populated.
type Vec struct {
	Kind  row.Kind
	Nulls []bool
	I64   []int64
	F64   []float64
	Str   [][]byte
}

// Reset prepares v for kind k, truncating storage but keeping capacity.
func (v *Vec) Reset(k row.Kind) {
	v.Kind = k
	v.Nulls = v.Nulls[:0]
	v.I64 = v.I64[:0]
	v.F64 = v.F64[:0]
	v.Str = v.Str[:0]
}

// Len returns the number of rows in v.
func (v *Vec) Len() int { return len(v.Nulls) }

// IsNull reports whether row i is NULL.
func (v *Vec) IsNull(i int) bool { return v.Nulls[i] }

// Value returns row i as a row.Value the caller owns: strings and bytes
// are copied out of the vector's storage (segment blob or batch arena),
// which a scan reuses for its next batch.
func (v *Vec) Value(i int) row.Value {
	switch {
	case v.Nulls[i]:
		return row.Null
	case v.Kind == row.KindInt64:
		return row.Int64(v.I64[i])
	case v.Kind == row.KindFloat64:
		return row.Float64(v.F64[i])
	case v.Kind == row.KindString:
		return row.String(string(v.Str[i]))
	default:
		return row.Bytes(bytes.Clone(v.Str[i]))
	}
}

// AppendNull appends a NULL slot.
func (v *Vec) AppendNull() {
	v.Nulls = append(v.Nulls, true)
	v.appendZero()
}

func (v *Vec) appendZero() {
	switch v.Kind {
	case row.KindInt64:
		v.I64 = append(v.I64, 0)
	case row.KindFloat64:
		v.F64 = append(v.F64, 0)
	default:
		v.Str = append(v.Str, nil)
	}
}

// AppendInt64 appends a non-null int64.
func (v *Vec) AppendInt64(x int64) {
	v.Nulls = append(v.Nulls, false)
	v.I64 = append(v.I64, x)
}

// AppendFloat64 appends a non-null float64.
func (v *Vec) AppendFloat64(x float64) {
	v.Nulls = append(v.Nulls, false)
	v.F64 = append(v.F64, x)
}

// AppendBytes appends a non-null string/bytes value. p is aliased, not
// copied — the caller guarantees it outlives the batch (segment blobs
// do; transient buffers must go through Batch.Arena first).
func (v *Vec) AppendBytes(p []byte) {
	v.Nulls = append(v.Nulls, false)
	v.Str = append(v.Str, p)
}

// AppendSelect appends the rows of src selected by idx, in order.
func (v *Vec) AppendSelect(src *Vec, idx []int32) {
	for _, i := range idx {
		v.Nulls = append(v.Nulls, src.Nulls[i])
	}
	switch v.Kind {
	case row.KindInt64:
		for _, i := range idx {
			v.I64 = append(v.I64, src.I64[i])
		}
	case row.KindFloat64:
		for _, i := range idx {
			v.F64 = append(v.F64, src.F64[i])
		}
	default:
		for _, i := range idx {
			v.Str = append(v.Str, src.Str[i])
		}
	}
}

// Batch is one unit of vectorized scan output: up to batch-size rows,
// their RIDs, and one Vec per projected column. The batch and everything
// it references are valid only until the scan callback returns — the
// scanner reuses the storage for the next batch.
type Batch struct {
	RIDs  []rid.RID
	Cols  []Vec
	arena []byte
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return len(b.RIDs) }

// Reset truncates the batch (keeping capacity) and re-kinds its columns.
func (b *Batch) Reset(kinds []row.Kind) {
	b.RIDs = b.RIDs[:0]
	if cap(b.Cols) < len(kinds) {
		b.Cols = make([]Vec, len(kinds))
	}
	b.Cols = b.Cols[:len(kinds)]
	for i := range b.Cols {
		b.Cols[i].Reset(kinds[i])
	}
	b.arena = b.arena[:0]
}

// Arena copies p into the batch's scratch arena and returns the stable
// copy, valid until the next Reset. Used for values read from mutable
// storage (page frames, IMRS fragments) that must not be aliased.
func (b *Batch) Arena(p []byte) []byte {
	n := len(b.arena)
	b.arena = append(b.arena, p...)
	return b.arena[n : n+len(p) : n+len(p)]
}
