// Package colseg implements the columnar cold store: immutable,
// compressed, column-grouped segments holding rows frozen at the coldest
// ILM level, plus the in-memory Store that maps RIDs to segment rows.
//
// The design follows the HTAP split the related work argues for: hot data
// stays row-oriented and write-optimized (IMRS + slotted pages), data
// that has finished its life cycle is frozen into scan-optimized
// immutable chunks behind the same RID-map indirection, so point reads,
// un-freeze-on-update and recovery keep working unchanged. A segment is
// a single self-validating byte blob — it is the After-image of a
// RecSegFreeze syslogs record, which is how segments survive restart.
//
// Blob layout (all multi-byte header fields little-endian):
//
//	magic "CSG1" | version=1 | tableID u32 | partID u32 | rows u32 | cols u16
//	uvarint rawBytes          (original row-codec size, for stats)
//	uvarint ridLen | RID column: uvarint first, then rows-1 zigzag deltas
//	cols uvarints             (per-column block byte lengths — the
//	                           directory that makes projection pushdown a
//	                           pure pointer skip)
//	cols column blocks
//
// Column block:
//
//	kind byte (row.Kind 1..4) | enc byte (0 raw, 1 dict, 2 delta) |
//	flags byte (bit0 hasNulls) | [null bitmap ceil(rows/8), bit=NULL] |
//	payload
//
// Raw payload: non-null values in row order (int64/float64 as 8 bytes
// big-endian, string/bytes as uvarint length + bytes). Dict payload:
// uvarint dictN, dictN entries (raw value encoding, first-occurrence
// order), then one uvarint code per non-null row. Delta payload (int64,
// null-free only): uvarint first value (as uint64 bits), then rows-1
// zigzag varints of wrapping deltas.
//
// Decoding is canonical-or-reject: minimal varints only, exact payload
// consumption, dict codes must reference entries in first-occurrence
// order with every entry used, null bitmaps must have zero trailing bits
// and at least one bit set, and RIDs must belong to the header partition.
// Corrupt or hostile input returns an error, never panics — the fuzz
// target in this package holds that line.
package colseg

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"repro/internal/rid"
	"repro/internal/row"
)

// Format constants.
const (
	magic   = "CSG1"
	version = 1

	// DefaultSegmentRows is the target rows per segment (and the default
	// vectorized scan batch size): ~1k values per column chunk, the
	// batch-at-a-time sweet spot the issue asks for.
	DefaultSegmentRows = 1024
	// MaxSegmentRows bounds decode-time allocation from hostile input.
	MaxSegmentRows = 4096
	// MaxColumns bounds the per-segment column count.
	MaxColumns = 1024
)

// Column encodings.
const (
	encRaw   = 0
	encDict  = 1
	encDelta = 2
)

const flagHasNulls = 1

// colMeta is the parsed directory entry for one column. bitmap and
// payload alias the segment blob.
type colMeta struct {
	kind     row.Kind
	enc      uint8
	hasNulls bool
	bitmap   []byte
	payload  []byte
	nonNull  int
}

// colCache is the lazily built random-access cache for one column, used
// by EncodeRowAt (point reads / un-freeze). Sequential consumers
// (AppendColumn) never need it.
type colCache struct {
	dictI64 []int64
	dictF64 []float64
	dictStr [][]byte // alias blob
	codes   []uint32 // per non-null row
	offs    []uint32 // raw varlen: payload offsets, len nonNull+1
	vals    []int64  // delta: fully decoded
}

// Segment is one immutable cold-store chunk plus its runtime row-death
// state. The encoded part never changes after Open; FreezeTS and the
// kill timestamps are runtime-only (rebuilt from the log on recovery).
type Segment struct {
	blob     []byte
	tableID  uint32
	part     rid.PartitionID
	rows     int
	rawBytes int64
	rids     []rid.RID
	cols     []colMeta
	caches   []atomic.Pointer[colCache]

	// FreezeTS is the commit timestamp of the freezing pack transaction.
	// Readers at snapshots older than it fall back to the row's previous
	// location; set once before Publish, never changed.
	FreezeTS uint64

	// kill[i] is 0 while row i is live. Kill stores ts<<1 | v, where ts
	// is the commit timestamp of the transaction that removed the row
	// from the cold store and v records the kind of kill, fixed at kill
	// time: 1 for a versioned kill (un-freeze by update into the IMRS,
	// re-freeze), whose copy stays the image of snapshots older than ts;
	// 0 for a read-committed kill (delete, un-freeze to the heap), which
	// hides the copy from every snapshot, as for page-store rows.
	kill []atomic.Uint64

	// sup[i] is the FreezeTS of the segment that re-froze row i's RID
	// (Store.Publish), 0 while this is the newest cold copy.
	sup []atomic.Uint64

	live atomic.Int64 // rows with kill==0
}

// Rows returns the row count.
func (s *Segment) Rows() int { return s.rows }

// Columns returns the column count.
func (s *Segment) Columns() int { return len(s.cols) }

// ColumnKind returns the row kind of column ci.
func (s *Segment) ColumnKind(ci int) row.Kind { return s.cols[ci].kind }

// TableID returns the owning table id.
func (s *Segment) TableID() uint32 { return s.tableID }

// Part returns the owning partition.
func (s *Segment) Part() rid.PartitionID { return s.part }

// Size returns the encoded blob size in bytes.
func (s *Segment) Size() int { return len(s.blob) }

// RawBytes returns the row-codec size of the frozen rows before
// compression.
func (s *Segment) RawBytes() int64 { return s.rawBytes }

// Blob returns the encoded segment (the RecSegFreeze After-image). The
// caller must not mutate it.
func (s *Segment) Blob() []byte { return s.blob }

// RIDAt returns the RID of row i.
func (s *Segment) RIDAt(i int) rid.RID { return s.rids[i] }

// KillTS returns row i's kill timestamp (0 = live).
func (s *Segment) KillTS(i int) uint64 { return s.kill[i].Load() >> 1 }

// Visible reports whether row i is the image a snapshot at snap reads:
// the copy is live, or a versioned kill removed it after snap.
func (s *Segment) Visible(i int, snap uint64) bool {
	k := s.kill[i].Load()
	return k == 0 || k&1 == 1 && k>>1 > snap
}

// Hidden reports whether a read-committed kill removed row i, which
// hides it from every snapshot.
func (s *Segment) Hidden(i int) bool {
	k := s.kill[i].Load()
	return k != 0 && k&1 == 0
}

// NewestAt reports whether row i was still the newest cold copy of its
// RID at timestamp ts: no segment re-freezing the RID was published by
// then.
func (s *Segment) NewestAt(i int, ts uint64) bool {
	sup := s.sup[i].Load()
	return sup == 0 || sup > ts
}

// LiveRows returns the number of rows with no kill timestamp.
func (s *Segment) LiveRows() int64 { return s.live.Load() }

// zigzag encoding for signed varints.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// readUvarint decodes a minimal-width uvarint at buf[pos:], returning the
// value and the new position.
func readUvarint(buf []byte, pos int) (uint64, int, error) {
	v, w := binary.Uvarint(buf[pos:])
	if w <= 0 || w != uvarintLen(v) {
		return 0, 0, fmt.Errorf("colseg: bad varint at offset %d", pos)
	}
	return v, pos + w, nil
}

// isNull reports whether row i is null in bitmap (nil bitmap = no nulls).
func isNull(bitmap []byte, i int) bool {
	if bitmap == nil {
		return false
	}
	return bitmap[i>>3]>>(uint(i)&7)&1 != 0
}

// Open parses and fully validates blob, returning a live Segment with
// all rows unkilled. The Segment aliases blob; the caller must not
// mutate it afterwards.
func Open(blob []byte) (*Segment, error) {
	if len(blob) < 4+1+4+4+4+2 {
		return nil, fmt.Errorf("colseg: blob too short (%d bytes)", len(blob))
	}
	if string(blob[:4]) != magic {
		return nil, fmt.Errorf("colseg: bad magic")
	}
	if blob[4] != version {
		return nil, fmt.Errorf("colseg: unsupported version %d", blob[4])
	}
	s := &Segment{blob: blob}
	s.tableID = binary.LittleEndian.Uint32(blob[5:])
	s.part = rid.PartitionID(binary.LittleEndian.Uint32(blob[9:]))
	rows := binary.LittleEndian.Uint32(blob[13:])
	cols := binary.LittleEndian.Uint16(blob[17:])
	if rows == 0 || rows > MaxSegmentRows {
		return nil, fmt.Errorf("colseg: row count %d out of range", rows)
	}
	if cols == 0 || cols > MaxColumns {
		return nil, fmt.Errorf("colseg: column count %d out of range", cols)
	}
	if s.part > 0x7FFF {
		return nil, fmt.Errorf("colseg: partition %d out of range", s.part)
	}
	s.rows = int(rows)
	pos := 19

	raw, pos, err := readUvarint(blob, pos)
	if err != nil {
		return nil, err
	}
	s.rawBytes = int64(raw)

	// RID column.
	ridLen, pos, err := readUvarint(blob, pos)
	if err != nil {
		return nil, err
	}
	if ridLen > uint64(len(blob)-pos) {
		return nil, fmt.Errorf("colseg: truncated rid block")
	}
	ridEnd := pos + int(ridLen)
	s.rids = make([]rid.RID, s.rows)
	first, p, err := readUvarint(blob[:ridEnd], pos)
	if err != nil {
		return nil, err
	}
	cur := first
	s.rids[0] = rid.RID(cur)
	for i := 1; i < s.rows; i++ {
		var d uint64
		d, p, err = readUvarint(blob[:ridEnd], p)
		if err != nil {
			return nil, err
		}
		cur += uint64(unzigzag(d))
		s.rids[i] = rid.RID(cur)
	}
	if p != ridEnd {
		return nil, fmt.Errorf("colseg: %d trailing bytes in rid block", ridEnd-p)
	}
	for i, r := range s.rids {
		if r == rid.Zero || r.Partition() != s.part {
			return nil, fmt.Errorf("colseg: row %d rid %v not in partition %d", i, r, s.part)
		}
	}
	pos = ridEnd

	// Column directory.
	lens := make([]int, cols)
	total := 0
	for i := range lens {
		var n uint64
		n, pos, err = readUvarint(blob, pos)
		if err != nil {
			return nil, err
		}
		if n > uint64(len(blob)) {
			return nil, fmt.Errorf("colseg: column %d block length overflow", i)
		}
		lens[i] = int(n)
		total += int(n)
		if total > len(blob)-pos {
			return nil, fmt.Errorf("colseg: truncated column blocks")
		}
	}
	if pos+total != len(blob) {
		return nil, fmt.Errorf("colseg: %d trailing bytes after column blocks", len(blob)-pos-total)
	}

	s.cols = make([]colMeta, cols)
	for i := range s.cols {
		block := blob[pos : pos+lens[i]]
		pos += lens[i]
		if err := s.parseColumn(i, block); err != nil {
			return nil, err
		}
	}

	s.caches = make([]atomic.Pointer[colCache], cols)
	s.kill = make([]atomic.Uint64, s.rows)
	s.sup = make([]atomic.Uint64, s.rows)
	s.live.Store(int64(s.rows))
	return s, nil
}

// parseColumn validates block and fills s.cols[ci]. Validation decodes
// every value once (without retaining it) so later readers can trust the
// payload shape.
func (s *Segment) parseColumn(ci int, block []byte) error {
	if len(block) < 3 {
		return fmt.Errorf("colseg: column %d block too short", ci)
	}
	m := &s.cols[ci]
	m.kind = row.Kind(block[0])
	m.enc = block[1]
	flags := block[2]
	if m.kind < row.KindInt64 || m.kind > row.KindBytes {
		return fmt.Errorf("colseg: column %d bad kind %d", ci, m.kind)
	}
	if m.enc > encDelta {
		return fmt.Errorf("colseg: column %d bad encoding %d", ci, m.enc)
	}
	if flags&^flagHasNulls != 0 {
		return fmt.Errorf("colseg: column %d bad flags %#x", ci, flags)
	}
	m.hasNulls = flags&flagHasNulls != 0
	p := 3
	m.nonNull = s.rows
	if m.hasNulls {
		bl := (s.rows + 7) / 8
		if len(block)-p < bl {
			return fmt.Errorf("colseg: column %d truncated null bitmap", ci)
		}
		m.bitmap = block[p : p+bl]
		p += bl
		nulls := 0
		for _, b := range m.bitmap {
			for x := b; x != 0; x &= x - 1 {
				nulls++
			}
		}
		if tail := uint(s.rows) & 7; tail != 0 && m.bitmap[bl-1]>>tail != 0 {
			return fmt.Errorf("colseg: column %d nonzero trailing bitmap bits", ci)
		}
		if nulls == 0 {
			return fmt.Errorf("colseg: column %d null flag set but no nulls", ci)
		}
		m.nonNull = s.rows - nulls
	}
	m.payload = block[p:]

	switch m.enc {
	case encRaw:
		return validateValues(m.kind, m.payload, m.nonNull, ci)
	case encDict:
		return validateDict(m, ci)
	case encDelta:
		if m.kind != row.KindInt64 {
			return fmt.Errorf("colseg: column %d delta encoding on kind %v", ci, m.kind)
		}
		if m.hasNulls {
			return fmt.Errorf("colseg: column %d delta encoding with nulls", ci)
		}
		p := 0
		for i := 0; i < s.rows; i++ {
			var err error
			_, p, err = readUvarint(m.payload, p)
			if err != nil {
				return fmt.Errorf("colseg: column %d: %v", ci, err)
			}
		}
		if p != len(m.payload) {
			return fmt.Errorf("colseg: column %d %d trailing payload bytes", ci, len(m.payload)-p)
		}
		return nil
	}
	return nil
}

// validateValues checks that buf holds exactly n raw values of kind k.
func validateValues(k row.Kind, buf []byte, n, ci int) error {
	p := 0
	switch k {
	case row.KindInt64, row.KindFloat64:
		if len(buf) != n*8 {
			return fmt.Errorf("colseg: column %d fixed payload %d bytes, want %d", ci, len(buf), n*8)
		}
	default:
		for i := 0; i < n; i++ {
			l, np, err := readUvarint(buf, p)
			if err != nil {
				return fmt.Errorf("colseg: column %d: %v", ci, err)
			}
			p = np
			if l > uint64(len(buf)-p) {
				return fmt.Errorf("colseg: column %d truncated varlen value", ci)
			}
			p += int(l)
		}
		if p != len(buf) {
			return fmt.Errorf("colseg: column %d %d trailing payload bytes", ci, len(buf)-p)
		}
	}
	return nil
}

// validateDict checks the dict block: entries must be in first-occurrence
// order (a code may be at most one past the highest code seen, so the
// encoding of any value sequence is unique) and every entry must be used.
func validateDict(m *colMeta, ci int) error {
	dictN, p, err := readUvarint(m.payload, 0)
	if err != nil {
		return fmt.Errorf("colseg: column %d: %v", ci, err)
	}
	if dictN == 0 || dictN > uint64(m.nonNull) {
		return fmt.Errorf("colseg: column %d dict size %d out of range", ci, dictN)
	}
	// Entries.
	for i := uint64(0); i < dictN; i++ {
		switch m.kind {
		case row.KindInt64, row.KindFloat64:
			if len(m.payload)-p < 8 {
				return fmt.Errorf("colseg: column %d truncated dict entry", ci)
			}
			p += 8
		default:
			l, np, err := readUvarint(m.payload, p)
			if err != nil {
				return fmt.Errorf("colseg: column %d: %v", ci, err)
			}
			p = np
			if l > uint64(len(m.payload)-p) {
				return fmt.Errorf("colseg: column %d truncated dict entry", ci)
			}
			p += int(l)
		}
	}
	// Codes.
	seen := uint64(0)
	for i := 0; i < m.nonNull; i++ {
		c, np, err := readUvarint(m.payload, p)
		if err != nil {
			return fmt.Errorf("colseg: column %d: %v", ci, err)
		}
		p = np
		if c > seen {
			return fmt.Errorf("colseg: column %d dict code %d out of first-occurrence order", ci, c)
		}
		if c == seen {
			seen++
		}
	}
	if seen != dictN {
		return fmt.Errorf("colseg: column %d dict has %d unused entries", ci, dictN-seen)
	}
	if p != len(m.payload) {
		return fmt.Errorf("colseg: column %d %d trailing payload bytes", ci, len(m.payload)-p)
	}
	return nil
}

// cache returns (building if needed) the random-access cache for column
// ci. Blocks were validated at Open, so parsing here cannot fail.
func (s *Segment) cache(ci int) *colCache {
	if c := s.caches[ci].Load(); c != nil {
		return c
	}
	m := &s.cols[ci]
	c := &colCache{}
	switch m.enc {
	case encRaw:
		if m.kind == row.KindString || m.kind == row.KindBytes {
			c.offs = make([]uint32, m.nonNull+1)
			p := 0
			for i := 0; i < m.nonNull; i++ {
				c.offs[i] = uint32(p)
				l, np, _ := readUvarint(m.payload, p)
				p = np + int(l)
			}
			c.offs[m.nonNull] = uint32(p)
		}
	case encDict:
		dictN, p, _ := readUvarint(m.payload, 0)
		switch m.kind {
		case row.KindInt64:
			c.dictI64 = make([]int64, dictN)
			for i := range c.dictI64 {
				c.dictI64[i] = int64(binary.BigEndian.Uint64(m.payload[p:]))
				p += 8
			}
		case row.KindFloat64:
			c.dictF64 = make([]float64, dictN)
			for i := range c.dictF64 {
				c.dictF64[i] = float64FromBits(binary.BigEndian.Uint64(m.payload[p:]))
				p += 8
			}
		default:
			c.dictStr = make([][]byte, dictN)
			for i := range c.dictStr {
				l, np, _ := readUvarint(m.payload, p)
				c.dictStr[i] = m.payload[np : np+int(l)]
				p = np + int(l)
			}
		}
		c.codes = make([]uint32, m.nonNull)
		for i := range c.codes {
			v, np, _ := readUvarint(m.payload, p)
			c.codes[i] = uint32(v)
			p = np
		}
	case encDelta:
		c.vals = make([]int64, s.rows)
		first, p, _ := readUvarint(m.payload, 0)
		c.vals[0] = int64(first)
		for i := 1; i < s.rows; i++ {
			d, np, _ := readUvarint(m.payload, p)
			c.vals[i] = int64(uint64(c.vals[i-1]) + uint64(unzigzag(d)))
			p = np
		}
	}
	// A racing builder may store first; either value is equivalent.
	s.caches[ci].Store(c)
	return c
}

// rank returns how many non-null rows precede row i in column m.
func rank(m *colMeta, i int) int {
	if m.bitmap == nil {
		return i
	}
	nulls := 0
	for b := 0; b < i>>3; b++ {
		for x := m.bitmap[b]; x != 0; x &= x - 1 {
			nulls++
		}
	}
	for r := i &^ 7; r < i; r++ {
		if isNull(m.bitmap, r) {
			nulls++
		}
	}
	return i - nulls
}

// rawFixedAt returns the nn-th fixed-width raw value as uint64 bits.
func (m *colMeta) rawFixedAt(nn int) uint64 {
	return binary.BigEndian.Uint64(m.payload[nn*8:])
}

// EncodeRowAt appends the full row-codec encoding of row i to dst — the
// bridge back into the row-oriented world for point reads and un-freeze.
func (s *Segment) EncodeRowAt(i int, dst []byte) ([]byte, error) {
	if i < 0 || i >= s.rows {
		return nil, fmt.Errorf("colseg: row %d out of range", i)
	}
	for ci := range s.cols {
		m := &s.cols[ci]
		if isNull(m.bitmap, i) {
			dst = row.AppendEncodedValue(dst, 0, 0, 0, nil)
			continue
		}
		nn := rank(m, i)
		switch m.enc {
		case encRaw:
			switch m.kind {
			case row.KindInt64:
				dst = row.AppendEncodedValue(dst, m.kind, int64(m.rawFixedAt(nn)), 0, nil)
			case row.KindFloat64:
				dst = row.AppendEncodedValue(dst, m.kind, 0, float64FromBits(m.rawFixedAt(nn)), nil)
			default:
				c := s.cache(ci)
				p := int(c.offs[nn])
				l, np, _ := readUvarint(m.payload, p)
				dst = row.AppendEncodedValue(dst, m.kind, 0, 0, m.payload[np:np+int(l)])
			}
		case encDict:
			c := s.cache(ci)
			code := c.codes[nn]
			switch m.kind {
			case row.KindInt64:
				dst = row.AppendEncodedValue(dst, m.kind, c.dictI64[code], 0, nil)
			case row.KindFloat64:
				dst = row.AppendEncodedValue(dst, m.kind, 0, c.dictF64[code], nil)
			default:
				dst = row.AppendEncodedValue(dst, m.kind, 0, 0, c.dictStr[code])
			}
		case encDelta:
			dst = row.AppendEncodedValue(dst, m.kind, s.cache(ci).vals[i], 0, nil)
		}
	}
	return dst, nil
}

// AppendColumn appends all rows of column ci to v, which must have been
// Reset to the column's kind. String/bytes values alias the segment blob
// (immutable, so safe to hold for the segment's lifetime). Decoding is
// sequential and cache-free — this is the vectorized scan hot path.
func (s *Segment) AppendColumn(ci int, v *Vec) error {
	if ci < 0 || ci >= len(s.cols) {
		return fmt.Errorf("colseg: column %d out of range", ci)
	}
	m := &s.cols[ci]
	if v.Kind != m.kind {
		return fmt.Errorf("colseg: column %d kind %v, vec wants %v", ci, m.kind, v.Kind)
	}
	switch m.enc {
	case encRaw:
		p := 0
		for i := 0; i < s.rows; i++ {
			if isNull(m.bitmap, i) {
				v.AppendNull()
				continue
			}
			switch m.kind {
			case row.KindInt64:
				v.AppendInt64(int64(binary.BigEndian.Uint64(m.payload[p:])))
				p += 8
			case row.KindFloat64:
				v.AppendFloat64(float64FromBits(binary.BigEndian.Uint64(m.payload[p:])))
				p += 8
			default:
				l, np, _ := readUvarint(m.payload, p)
				v.AppendBytes(m.payload[np : np+int(l)])
				p = np + int(l)
			}
		}
	case encDict:
		c := s.cache(ci)
		nn := 0
		for i := 0; i < s.rows; i++ {
			if isNull(m.bitmap, i) {
				v.AppendNull()
				continue
			}
			code := c.codes[nn]
			nn++
			switch m.kind {
			case row.KindInt64:
				v.AppendInt64(c.dictI64[code])
			case row.KindFloat64:
				v.AppendFloat64(c.dictF64[code])
			default:
				v.AppendBytes(c.dictStr[code])
			}
		}
	case encDelta:
		p := 0
		var cur int64
		for i := 0; i < s.rows; i++ {
			u, np, _ := readUvarint(m.payload, p)
			p = np
			if i == 0 {
				cur = int64(u)
			} else {
				cur = int64(uint64(cur) + uint64(unzigzag(u)))
			}
			v.AppendInt64(cur)
		}
	}
	return nil
}
