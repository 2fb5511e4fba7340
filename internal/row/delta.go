package row

import (
	"encoding/binary"
	"fmt"
)

// A delta is the change an update makes to a row image, as the
// sysimrslogs delta record carries it: for each changed column, its
// ordinal as a uvarint, then its new value in the image's own column
// encoding (kind byte, then payload; see codec.go). Ordinals are
// strictly ascending, and nothing follows the last value. A delta is
// read against the image it changes: Splice rebuilds the new image
// from the two.

// AppendDelta appends to dst the delta that sets the column at ords[j]
// of the image to vals[j] (nil ords: vals is a whole row), leaving out
// every column whose encoding does not change. ords must be strictly
// ascending, and each value must be NULL or of its column's kind. size
// is the length of the image the delta makes.
func (im *Image) AppendDelta(dst []byte, ords []int, vals Row) (_ []byte, size int, err error) {
	if err := im.index(); err != nil {
		return nil, 0, err
	}
	n := len(im.offs) - 1
	if ords == nil && len(vals) != n || ords != nil && len(ords) != len(vals) {
		return nil, 0, fmt.Errorf("row: delta of %d values over %d ordinals", len(vals), len(ords))
	}
	size = len(im.buf)
	last := -1
	for j, v := range vals {
		o := j
		if ords != nil {
			o = ords[j]
		}
		if o <= last || o >= n {
			return nil, 0, fmt.Errorf("row: delta ordinal %d out of order or range", o)
		}
		last = o
		if v.kind != 0 && v.kind != im.s.Column(o).Kind {
			return nil, 0, fmt.Errorf("row: column %q wants %v, got %v", im.s.Column(o).Name, im.s.Column(o).Kind, v.kind)
		}
		// Equal fields encode equally, and unequal ones differently.
		if old := view(im.buf, im.offs[o]); old.kind == v.kind && old.num == v.num && old.str == v.str {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(o))
		at := len(dst)
		dst = AppendEncoded(vals[j:j+1], dst)
		size += len(dst) - at - (im.offs[o+1] - im.offs[o])
	}
	return dst, size, nil
}

// Splice appends to dst the image that delta makes of this one: the
// image's bytes, with each column the delta names replaced by its
// value, copied run by run. The delta is checked as strictly as parse
// checks an image: ordinals in range and strictly ascending, minimal
// varints, each value NULL or of its column's kind, none cut short.
func (im *Image) Splice(dst, delta []byte) ([]byte, error) {
	if err := im.index(); err != nil {
		return nil, err
	}
	n := len(im.offs) - 1
	from, last := 0, -1
	for pos := 0; pos < len(delta); {
		u, w := binary.Uvarint(delta[pos:])
		if w <= 0 || w != uvarintLen(u) || u >= uint64(n) || int(u) <= last {
			return nil, fmt.Errorf("row: bad delta ordinal at byte %d", pos)
		}
		o := int(u)
		pos += w
		end, err := valueEnd(im.s.Column(o).Kind, delta, pos)
		if err != nil {
			return nil, err
		}
		dst = append(dst, im.buf[from:im.offs[o]]...)
		dst = append(dst, delta[pos:end]...)
		from, last, pos = im.offs[o+1], o, end
	}
	return append(dst, im.buf[from:]...), nil
}

// valueEnd returns where the value encoded at buf[pos] ends, checking
// it as parse checks a column of kind want.
func valueEnd(want Kind, buf []byte, pos int) (int, error) {
	if pos >= len(buf) {
		return 0, fmt.Errorf("row: delta value cut short")
	}
	k := Kind(buf[pos])
	pos++
	if k != 0 && k != want {
		return 0, fmt.Errorf("row: delta value kind %v, schema wants %v", k, want)
	}
	switch k {
	case KindInt64, KindFloat64:
		if pos+8 > len(buf) {
			return 0, fmt.Errorf("row: delta value cut short")
		}
		pos += 8
	case KindString, KindBytes:
		l, w := binary.Uvarint(buf[pos:])
		if w <= 0 || w != uvarintLen(l) || l > uint64(len(buf)-pos-w) {
			return 0, fmt.Errorf("row: delta value cut short")
		}
		pos += w + int(l)
	}
	return pos, nil
}
