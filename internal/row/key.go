package row

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Key is an order-preserving binary encoding of one or more values:
// bytes.Compare on two Keys orders the same way the underlying composite
// values order (NULL first, then by value). Keys are what the B-tree and
// hash index store.
type Key []byte

// Key column tags. Distinct per kind so mixed comparisons stay sane; NULL
// sorts before every non-null value.
const (
	keyTagNull   byte = 0x01
	keyTagInt    byte = 0x02
	keyTagFloat  byte = 0x03
	keyTagString byte = 0x04
	keyTagBytes  byte = 0x04 // bytes and strings collate together
)

// EncodeKey appends the order-preserving encoding of vals to dst.
func EncodeKey(dst []byte, vals ...Value) Key {
	for _, v := range vals {
		switch v.kind {
		case 0:
			dst = append(dst, keyTagNull)
		case KindInt64:
			dst = append(dst, keyTagInt)
			// Flip the sign bit so unsigned byte order matches signed order.
			dst = binary.BigEndian.AppendUint64(dst, v.num^(1<<63))
		case KindFloat64:
			dst = append(dst, keyTagFloat)
			bits := v.num
			if bits&(1<<63) != 0 {
				bits = ^bits // negative floats: invert everything
			} else {
				bits |= 1 << 63 // positive: set the sign bit
			}
			dst = binary.BigEndian.AppendUint64(dst, bits)
		case KindString:
			dst = append(dst, keyTagString)
			dst = appendEscaped(dst, v.bytes())
		case KindBytes:
			dst = append(dst, keyTagBytes)
			dst = appendEscaped(dst, v.bytes())
		}
	}
	return dst
}

// appendEscaped writes b with 0x00 escaped as 0x00 0xFF and terminates
// with 0x00 0x00, so that prefixes sort before their extensions.
func appendEscaped(dst, b []byte) []byte {
	for _, c := range b {
		if c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x00)
}

// Compare orders two keys; it is bytes.Compare.
func Compare(a, b Key) int { return bytes.Compare(a, b) }

// KeyOf extracts the columns at ords from r and encodes them as a Key.
func KeyOf(r Row, ords []int) (Key, error) {
	vals := make([]Value, len(ords))
	for i, o := range ords {
		if o < 0 || o >= len(r) {
			return nil, fmt.Errorf("row: key ordinal %d out of range", o)
		}
		vals[i] = r[o]
	}
	return EncodeKey(nil, vals...), nil
}
