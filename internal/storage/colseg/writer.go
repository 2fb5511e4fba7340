package colseg

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/rid"
	"repro/internal/row"
)

func float64FromBits(u uint64) float64 { return math.Float64frombits(u) }

// colBuilder accumulates one column's values across Add calls. Values
// are stored densely for non-null rows in row order; varlen payloads go
// into a shared arena with prefix offsets.
type colBuilder struct {
	kind    row.Kind
	nulls   []bool
	anyNull bool
	nonNull int
	i64     []int64
	f64     []float64
	arena   []byte
	offs    []int // len nonNull+1 once started; offs[i]..offs[i+1] in arena
}

func (b *colBuilder) reset(k row.Kind) {
	b.kind = k
	b.nulls = b.nulls[:0]
	b.anyNull = false
	b.nonNull = 0
	b.i64 = b.i64[:0]
	b.f64 = b.f64[:0]
	b.arena = b.arena[:0]
	b.offs = b.offs[:0]
}

// Writer builds one segment from row-codec encoded rows. It is reusable
// via Reset to amortize builder allocations across pack cycles.
type Writer struct {
	tableID  uint32
	part     rid.PartitionID
	schema   *row.Schema
	forceRaw bool
	rids     []rid.RID
	rawBytes int64
	cols     []colBuilder
	scratch  []byte
}

// NewWriter returns a Writer for one (table, partition) pair. forceRaw
// stores every column raw, the fallback encoding (codec tests only).
func NewWriter(tableID uint32, part rid.PartitionID, s *row.Schema, forceRaw bool) *Writer {
	w := &Writer{tableID: tableID, part: part, schema: s, forceRaw: forceRaw}
	w.cols = make([]colBuilder, s.NumColumns())
	w.Reset()
	return w
}

// Reset clears accumulated rows, keeping builder capacity.
func (w *Writer) Reset() {
	w.rids = w.rids[:0]
	w.rawBytes = 0
	for i := range w.cols {
		w.cols[i].reset(w.schema.Column(i).Kind)
	}
}

// Rows returns the number of rows added since the last Reset.
func (w *Writer) Rows() int { return len(w.rids) }

// RawBytes returns the accumulated row-codec byte size.
func (w *Writer) RawBytes() int64 { return w.rawBytes }

// Add appends one row (row-codec encoding, must match the schema). data
// is fully consumed during the call and may be reused afterwards.
func (w *Writer) Add(r rid.RID, data []byte) error {
	if len(w.rids) >= MaxSegmentRows {
		return fmt.Errorf("colseg: segment full (%d rows)", MaxSegmentRows)
	}
	if r == rid.Zero || r.Partition() != w.part {
		return fmt.Errorf("colseg: rid %v not in partition %d", r, w.part)
	}
	err := row.VisitEncoded(w.schema, data, func(col int, k row.Kind, i int64, f float64, bts []byte) error {
		b := &w.cols[col]
		if k == 0 {
			b.nulls = append(b.nulls, true)
			b.anyNull = true
			return nil
		}
		b.nulls = append(b.nulls, false)
		b.nonNull++
		switch k {
		case row.KindInt64:
			b.i64 = append(b.i64, i)
		case row.KindFloat64:
			b.f64 = append(b.f64, f)
		default:
			if len(b.offs) == 0 {
				b.offs = append(b.offs, 0)
			}
			b.arena = append(b.arena, bts...)
			b.offs = append(b.offs, len(b.arena))
		}
		return nil
	})
	if err != nil {
		return err
	}
	w.rids = append(w.rids, r)
	w.rawBytes += int64(len(data))
	return nil
}

// varAt returns the i-th varlen value of b.
func (b *colBuilder) varAt(i int) []byte { return b.arena[b.offs[i]:b.offs[i+1]] }

// Finish appends the encoded segment to dst and returns it. The Writer
// keeps its rows (call Reset to start the next segment).
func (w *Writer) Finish(dst []byte) ([]byte, error) {
	rows := len(w.rids)
	if rows == 0 {
		return nil, fmt.Errorf("colseg: empty segment")
	}
	dst = append(dst, magic...)
	dst = append(dst, version)
	dst = binary.LittleEndian.AppendUint32(dst, w.tableID)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(w.part))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rows))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(w.cols)))
	dst = binary.AppendUvarint(dst, uint64(w.rawBytes))

	// RID column: first value raw, then zigzag wrapping deltas.
	rb := w.scratch[:0]
	rb = binary.AppendUvarint(rb, uint64(w.rids[0]))
	for i := 1; i < rows; i++ {
		rb = binary.AppendUvarint(rb, zigzag(int64(uint64(w.rids[i])-uint64(w.rids[i-1]))))
	}
	dst = binary.AppendUvarint(dst, uint64(len(rb)))
	dst = append(dst, rb...)

	// Encode blocks into scratch first so the directory can be written
	// before the blocks.
	blocks := make([][]byte, len(w.cols))
	for ci := range w.cols {
		blocks[ci] = w.encodeColumn(&w.cols[ci], rows)
		dst = binary.AppendUvarint(dst, uint64(len(blocks[ci])))
	}
	for _, b := range blocks {
		dst = append(dst, b...)
	}
	w.scratch = rb[:0]
	return dst, nil
}

// encodeColumn picks the smallest applicable encoding (tie order: raw,
// dict, delta — deterministic so encodings are reproducible) and encodes
// the block.
func (w *Writer) encodeColumn(b *colBuilder, rows int) []byte {
	rawSz := b.rawPayloadSize()
	enc, sz := uint8(encRaw), rawSz
	var dictEntries []int // first-occurrence order, indices into b's dense values
	var dictCodes []uint32
	if !w.forceRaw && b.nonNull > 0 {
		dictEntries, dictCodes = b.buildDict()
		if dsz := b.dictPayloadSize(dictEntries, dictCodes); dsz < sz {
			enc, sz = encDict, dsz
		}
		if b.kind == row.KindInt64 && !b.anyNull {
			if tsz := b.deltaPayloadSize(); tsz < sz {
				enc, sz = encDelta, tsz
			}
		}
	}

	out := make([]byte, 0, 3+(rows+7)/8+sz)
	out = append(out, byte(b.kind), enc)
	if b.anyNull {
		out = append(out, flagHasNulls)
		bl := (rows + 7) / 8
		bm := make([]byte, bl)
		for i, n := range b.nulls {
			if n {
				bm[i>>3] |= 1 << (uint(i) & 7)
			}
		}
		out = append(out, bm...)
	} else {
		out = append(out, 0)
	}

	switch enc {
	case encRaw:
		out = b.appendRawValues(out)
	case encDict:
		out = binary.AppendUvarint(out, uint64(len(dictEntries)))
		for _, ei := range dictEntries {
			out = b.appendValue(out, ei)
		}
		for _, c := range dictCodes {
			out = binary.AppendUvarint(out, uint64(c))
		}
	case encDelta:
		out = binary.AppendUvarint(out, uint64(b.i64[0]))
		for i := 1; i < len(b.i64); i++ {
			out = binary.AppendUvarint(out, zigzag(int64(uint64(b.i64[i])-uint64(b.i64[i-1]))))
		}
	}
	return out
}

func (b *colBuilder) rawPayloadSize() int {
	switch b.kind {
	case row.KindInt64, row.KindFloat64:
		return b.nonNull * 8
	default:
		n := len(b.arena)
		for i := 0; i < b.nonNull; i++ {
			n += uvarintLen(uint64(b.offs[i+1] - b.offs[i]))
		}
		return n
	}
}

// appendValue appends the nn-th dense value in raw value encoding.
func (b *colBuilder) appendValue(dst []byte, nn int) []byte {
	switch b.kind {
	case row.KindInt64:
		return binary.BigEndian.AppendUint64(dst, uint64(b.i64[nn]))
	case row.KindFloat64:
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(b.f64[nn]))
	default:
		v := b.varAt(nn)
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		return append(dst, v...)
	}
}

func (b *colBuilder) appendRawValues(dst []byte) []byte {
	for i := 0; i < b.nonNull; i++ {
		dst = b.appendValue(dst, i)
	}
	return dst
}

// buildDict assigns codes in first-occurrence order. Returns the entry
// list (dense-value indices) and the per-non-null-row codes.
func (b *colBuilder) buildDict() ([]int, []uint32) {
	codes := make([]uint32, b.nonNull)
	var entries []int
	switch b.kind {
	case row.KindInt64:
		m := make(map[int64]uint32, len(b.i64))
		for i, v := range b.i64 {
			c, ok := m[v]
			if !ok {
				c = uint32(len(entries))
				m[v] = c
				entries = append(entries, i)
			}
			codes[i] = c
		}
	case row.KindFloat64:
		m := make(map[uint64]uint32, len(b.f64))
		for i, v := range b.f64 {
			bits := math.Float64bits(v)
			c, ok := m[bits]
			if !ok {
				c = uint32(len(entries))
				m[bits] = c
				entries = append(entries, i)
			}
			codes[i] = c
		}
	default:
		m := make(map[string]uint32, b.nonNull)
		for i := 0; i < b.nonNull; i++ {
			v := b.varAt(i)
			c, ok := m[string(v)]
			if !ok {
				c = uint32(len(entries))
				m[string(v)] = c
				entries = append(entries, i)
			}
			codes[i] = c
		}
	}
	return entries, codes
}

func (b *colBuilder) dictPayloadSize(entries []int, codes []uint32) int {
	n := uvarintLen(uint64(len(entries)))
	for _, ei := range entries {
		switch b.kind {
		case row.KindInt64, row.KindFloat64:
			n += 8
		default:
			l := b.offs[ei+1] - b.offs[ei]
			n += uvarintLen(uint64(l)) + l
		}
	}
	for _, c := range codes {
		n += uvarintLen(uint64(c))
	}
	return n
}

func (b *colBuilder) deltaPayloadSize() int {
	n := uvarintLen(uint64(b.i64[0]))
	for i := 1; i < len(b.i64); i++ {
		n += uvarintLen(zigzag(int64(uint64(b.i64[i]) - uint64(b.i64[i-1]))))
	}
	return n
}
