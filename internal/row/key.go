package row

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
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

// EncodeKey appends the order-preserving encoding of vals to dst,
// growing dst at most once (see KeySize).
func EncodeKey(dst []byte, vals ...Value) Key {
	n := 0
	for _, v := range vals {
		n += keySize(v)
	}
	dst = slices.Grow(dst, n)
	for _, v := range vals {
		dst = appendKeyValue(dst, v)
	}
	return dst
}

// keySize is the encoded length of v, not counting the escapes of 0x00
// bytes inside a string.
func keySize(v Value) int {
	switch v.kind {
	case KindInt64, KindFloat64:
		return 9
	case KindString, KindBytes:
		return 3 + len(v.str)
	}
	return 1
}

// appendKeyValue appends the order-preserving encoding of one value.
func appendKeyValue(dst []byte, v Value) []byte {
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
	return AppendKeyOf(nil, r, ords)
}

// AppendKeyOf appends the Key of the columns at ords of r to dst,
// growing dst at most once (see KeySize).
func AppendKeyOf(dst []byte, r Row, ords []int) (Key, error) {
	dst = slices.Grow(dst, KeySize(r, ords))
	for _, o := range ords {
		if o < 0 || o >= len(r) {
			return nil, fmt.Errorf("row: key ordinal %d out of range", o)
		}
		dst = appendKeyValue(dst, r[o])
	}
	return dst, nil
}

// KeySize returns the length of the Key of the columns at ords of r,
// not counting the escapes of 0x00 bytes inside strings (a key with
// them outgrows the size once). Ordinals out of range count nothing.
func KeySize(r Row, ords []int) int {
	n := 0
	for _, o := range ords {
		if o >= 0 && o < len(r) {
			n += keySize(r[o])
		}
	}
	return n
}
