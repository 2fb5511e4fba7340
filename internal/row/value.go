// Package row defines the tuple model shared by the page store and the
// IMRS: typed column values, schemas, a compact binary row encoding, and
// an order-preserving composite key encoding used by the B-tree.
package row

import (
	"fmt"
	"math"
	"unsafe"
)

// Kind enumerates column types.
type Kind uint8

// Supported column kinds.
const (
	KindInt64 Kind = iota + 1
	KindFloat64
	KindString
	KindBytes
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindInt64:
		return "int64"
	case KindFloat64:
		return "float64"
	case KindString:
		return "string"
	case KindBytes:
		return "bytes"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a single typed column value. The zero Value is NULL. It is
// 32 bytes: rows are decoded into a fresh []Value per read, so the two
// numeric kinds share one word and the two variable-length kinds share
// one string header.
type Value struct {
	kind Kind
	num  uint64 // KindInt64: the value; KindFloat64: its IEEE 754 bits
	str  string // KindString: the value; KindBytes: the slice's memory
}

// Int64 returns an int64 value.
func Int64(v int64) Value { return Value{kind: KindInt64, num: uint64(v)} }

// Float64 returns a float64 value.
func Float64(v float64) Value { return Value{kind: KindFloat64, num: math.Float64bits(v)} }

// String returns a string value.
func String(v string) Value { return Value{kind: KindString, str: v} }

// Bytes returns a raw bytes value. The slice is referenced, not copied.
func Bytes(v []byte) Value {
	return Value{kind: KindBytes, str: unsafe.String(unsafe.SliceData(v), len(v))}
}

// bytes returns the memory behind v.str as a slice: the slice a KindBytes
// value was made from, or a read-only view of a KindString value.
func (v Value) bytes() []byte { return unsafe.Slice(unsafe.StringData(v.str), len(v.str)) }

func (v Value) float() float64 { return math.Float64frombits(v.num) }

// Null is the NULL value.
var Null = Value{}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == 0 }

// Kind returns the value's kind (0 for NULL).
func (v Value) Kind() Kind { return v.kind }

// Int returns the int64 payload; it panics on kind mismatch.
func (v Value) Int() int64 {
	if v.kind != KindInt64 {
		panic(fmt.Sprintf("row: Int() on %v value", v.kind))
	}
	return int64(v.num)
}

// Float returns the float64 payload; it panics on kind mismatch.
func (v Value) Float() float64 {
	if v.kind != KindFloat64 {
		panic(fmt.Sprintf("row: Float() on %v value", v.kind))
	}
	return v.float()
}

// Str returns the string payload; it panics on kind mismatch.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("row: Str() on %v value", v.kind))
	}
	return v.str
}

// Raw returns the bytes payload; it panics on kind mismatch.
func (v Value) Raw() []byte {
	if v.kind != KindBytes {
		panic(fmt.Sprintf("row: Raw() on %v value", v.kind))
	}
	return v.bytes()
}

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case 0:
		return true
	case KindInt64:
		return v.num == o.num
	case KindFloat64:
		return v.float() == o.float() || (math.IsNaN(v.float()) && math.IsNaN(o.float()))
	case KindString, KindBytes:
		return v.str == o.str
	}
	return false
}

// String implements fmt.Stringer.
func (v Value) String() string {
	switch v.kind {
	case 0:
		return "NULL"
	case KindInt64:
		return fmt.Sprintf("%d", int64(v.num))
	case KindFloat64:
		return fmt.Sprintf("%g", v.float())
	case KindString:
		return fmt.Sprintf("%q", v.str)
	case KindBytes:
		return fmt.Sprintf("0x%x", v.str)
	}
	return "?"
}

// Row is a tuple of values, positionally matching a Schema.
type Row []Value

// Clone returns a deep copy of r (bytes payloads copied).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	for i, v := range r {
		if v.kind == KindBytes {
			v = Bytes([]byte(v.str))
		}
		out[i] = v
	}
	return out
}

// Equal reports deep equality of two rows.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}
