package row

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// An Image is the encoding of one row, read in place: the stores hand
// out row images, and a read decodes only the columns it returns. The
// first method that reads a column checks the whole image exactly as
// Decode does (kind bytes against the schema, minimal varints, bounds,
// no trailing bytes) and indexes where each column begins; key
// extraction and projected decodes then read the columns they need. An
// Image aliases the buffer it was given (an IMRS version, a page-store
// copy, a scratch encode) and is valid only while that buffer is; the
// values Decode hands out are copies and stay valid.
type Image struct {
	s       *Schema
	buf     []byte
	offs    []int // offs[i]: column i's kind byte; offs[n] = len(buf)
	indexed bool  // offs describes buf, which parse accepted
}

// Set points the image at buf, a row encoded per s, without checking
// it yet. The image's offset storage is reused.
func (im *Image) Set(s *Schema, buf []byte) {
	im.s, im.buf, im.indexed = s, buf, false
}

// Release drops the image's reference to its buffer, so a pooled image
// does not keep that buffer alive.
func (im *Image) Release() { im.s, im.buf, im.indexed = nil, nil, false }

// index checks the image and records where its columns begin, once.
func (im *Image) index() error {
	if im.indexed {
		return nil
	}
	if im.s == nil {
		return fmt.Errorf("row: image not set")
	}
	n := im.s.NumColumns()
	if cap(im.offs) < n+1 {
		im.offs = make([]int, n+1)
	}
	im.offs = im.offs[:n+1]
	if err := parse(im.s, im.buf, im.offs); err != nil {
		return err
	}
	im.indexed = true
	return nil
}

// AppendKey appends the Key of the columns at ords to dst, reading them
// in place: it equals AppendKeyOf over the decoded row and allocates
// only when dst must grow.
func (im *Image) AppendKey(dst Key, ords []int) (Key, error) {
	if err := im.index(); err != nil {
		return nil, err
	}
	for _, o := range ords {
		if o < 0 || o >= len(im.offs)-1 {
			return nil, fmt.Errorf("row: key ordinal %d out of range", o)
		}
		dst = appendKeyValue(dst, view(im.buf, im.offs[o]))
	}
	return dst, nil
}

// Decode fills dst[j] with the column at ords[j]. Only what it returns
// is copied: the string payloads of the projected columns share one
// allocation, each bytes payload gets one of its own (callers may write
// to it), and a projection without strings or bytes allocates nothing.
// With nil ords it decodes every column in schema order, in one pass,
// as Decode does.
func (im *Image) Decode(ords []int, dst Row) error {
	if ords == nil {
		if im.s == nil || len(dst) != im.s.NumColumns() {
			return fmt.Errorf("row: decode into a row of %d columns", len(dst))
		}
		return decodeInto(im.s, im.buf, dst)
	}
	if err := im.index(); err != nil {
		return err
	}
	return project(im.buf, im.offs, ords, dst)
}

// parse checks buf per s, exactly as decodeInto does (FuzzRowDecode
// holds the two to the same errors), and records in offs where each
// column begins.
func parse(s *Schema, buf []byte, offs []int) error {
	n := s.NumColumns()
	pos := 0
	for i := 0; i < n; i++ {
		if pos >= len(buf) {
			return fmt.Errorf("row: truncated at column %d", i)
		}
		offs[i] = pos
		k := Kind(buf[pos])
		pos++
		switch k {
		case 0:
		case KindInt64, KindFloat64:
			if pos+8 > len(buf) {
				return fmt.Errorf("row: truncated %v at column %d", k, i)
			}
			pos += 8
		case KindString, KindBytes:
			l, w := binary.Uvarint(buf[pos:])
			if w <= 0 || w != uvarintLen(l) || l > uint64(len(buf)-pos-w) {
				return fmt.Errorf("row: truncated varlen at column %d", i)
			}
			pos += w + int(l)
		default:
			return fmt.Errorf("row: bad kind byte %d at column %d", k, i)
		}
		if k != 0 && k != s.Column(i).Kind {
			return fmt.Errorf("row: column %d kind %v, schema wants %v", i, k, s.Column(i).Kind)
		}
	}
	if pos != len(buf) {
		return fmt.Errorf("row: %d trailing bytes", len(buf)-pos)
	}
	offs[n] = pos
	return nil
}

// view returns the column whose kind byte is at buf[pos] of a checked
// image. A string or bytes value aliases buf.
func view(buf []byte, pos int) Value {
	k := Kind(buf[pos])
	pos++
	switch k {
	case KindInt64, KindFloat64:
		return Value{kind: k, num: binary.BigEndian.Uint64(buf[pos:])}
	case KindString, KindBytes:
		l, w := binary.Uvarint(buf[pos:])
		p := buf[pos+w : pos+w+int(l)]
		return Value{kind: k, str: unsafe.String(unsafe.SliceData(p), len(p))}
	}
	return Null
}

// project copies the columns at ords of a checked image into dst; see
// Image.Decode. Each value is written to dst once, already copied.
func project(buf []byte, offs []int, ords []int, dst Row) error {
	n := len(offs) - 1
	if len(dst) != len(ords) {
		return fmt.Errorf("row: decode of %d columns into a row of %d", len(ords), len(dst))
	}
	strs := 0
	for _, o := range ords {
		if o < 0 || o >= n {
			return fmt.Errorf("row: column ordinal %d out of range", o)
		}
		if Kind(buf[offs[o]]) == KindString {
			l, _ := binary.Uvarint(buf[offs[o]+1:])
			strs += int(l)
		}
	}
	var copies []byte // every returned string payload, back to back
	if strs > 0 {
		copies = make([]byte, 0, strs)
	}
	for j, o := range ords {
		v := view(buf, offs[o])
		switch {
		case v.kind == KindString && v.str == "":
			v.str = "" // not a pointer into buf
		case v.kind == KindString:
			at := len(copies)
			copies = append(copies, v.str...) // within capacity: never moves
			v.str = unsafe.String(&copies[at], len(v.str))
		case v.kind == KindBytes:
			v = Bytes(append(make([]byte, 0, len(v.str)), v.str...))
		}
		dst[j] = v
	}
	return nil
}
