package row

import (
	"encoding/binary"
	"fmt"
)

// Row wire format: for each column, one kind byte (0 = NULL), then a
// kind-dependent payload: int64/float64 as 8 fixed bytes, string/bytes as
// uvarint length + raw bytes. The format is self-describing enough to be
// decoded with the schema alone and is stable across the two stores and
// both logs.

// Encode appends the encoding of r (which must match s) to dst and
// returns the extended slice.
func Encode(s *Schema, r Row, dst []byte) ([]byte, error) {
	if err := s.Validate(r); err != nil {
		return nil, err
	}
	return AppendEncoded(r, dst), nil
}

// AppendEncoded appends the encoding of r to dst without schema
// validation, for hot paths that have already validated r (the encoding
// of an invalid row would decode to garbage, so callers must). With dst
// capacity of at least EncodedSize(r), it does not allocate.
func AppendEncoded(r Row, dst []byte) []byte {
	for _, v := range r {
		dst = append(dst, byte(v.kind))
		switch v.kind {
		case 0: // NULL: kind byte only
		case KindInt64, KindFloat64:
			dst = binary.BigEndian.AppendUint64(dst, v.num)
		case KindString, KindBytes:
			dst = binary.AppendUvarint(dst, uint64(len(v.str)))
			dst = append(dst, v.str...)
		}
	}
	return dst
}

// EncodedSize returns the exact byte size Encode will produce for r.
func EncodedSize(r Row) int {
	n := 0
	for _, v := range r {
		n++
		switch v.kind {
		case KindInt64, KindFloat64:
			n += 8
		case KindString, KindBytes:
			n += uvarintLen(uint64(len(v.str))) + len(v.str)
		}
	}
	return n
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// Decode parses an encoded row per schema s. The returned Row's string
// and bytes payloads copy out of buf, so buf may be reused by the caller:
// every string column is backed by one copy of buf from the first string
// payload on, and each bytes column gets a copy of its own, because
// callers may write to it.
func Decode(s *Schema, buf []byte) (Row, error) {
	r := make(Row, s.NumColumns())
	if err := decodeInto(s, buf, r); err != nil {
		return nil, err
	}
	return r, nil
}

// decodeInto is Decode into dst, as wide as the schema. It checks buf
// exactly as Image does (parse), in one pass that also decodes.
func decodeInto(s *Schema, buf []byte, dst Row) error {
	var backing string // buf[base:], copied at the first string payload
	base := 0
	pos := 0
	for i := 0; i < s.NumColumns(); i++ {
		if pos >= len(buf) {
			return fmt.Errorf("row: truncated at column %d", i)
		}
		k := Kind(buf[pos])
		pos++
		switch k {
		case 0:
			dst[i] = Null
		case KindInt64, KindFloat64:
			if pos+8 > len(buf) {
				return fmt.Errorf("row: truncated %v at column %d", k, i)
			}
			dst[i] = Value{kind: k, num: binary.BigEndian.Uint64(buf[pos:])}
			pos += 8
		case KindString, KindBytes:
			n, w := binary.Uvarint(buf[pos:])
			if w <= 0 || w != uvarintLen(n) {
				// Only minimal-width varints are valid: Encode never
				// emits padded ones, so anything else is corruption.
				return fmt.Errorf("row: truncated varlen at column %d", i)
			}
			pos += w
			// Compare in uint64 space: a hostile length near 2^64 would
			// wrap an int addition and pass a pos+n bound check.
			if n > uint64(len(buf)-pos) {
				return fmt.Errorf("row: truncated varlen at column %d", i)
			}
			end := pos + int(n)
			if k == KindString {
				if backing == "" {
					base = pos
					backing = string(buf[base:])
				}
				dst[i] = String(backing[pos-base : end-base])
			} else {
				dst[i] = Bytes(append(make([]byte, 0, n), buf[pos:end]...))
			}
			pos = end
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
	return nil
}
