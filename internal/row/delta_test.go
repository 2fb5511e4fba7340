package row

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// deltaOf builds a delta by hand, in the order given: the seeds need
// unsorted and duplicate ordinals, which AppendDelta never writes.
func deltaOf(cols ...any) []byte {
	var d []byte
	for i := 0; i < len(cols); i += 2 {
		d = binary.AppendUvarint(d, uint64(cols[i].(int)))
		d = AppendEncoded(Row{cols[i+1].(Value)}, d)
	}
	return d
}

// refSplice is the delta's meaning, written independently of Splice:
// decode the image, decode the delta's (ordinal, value) pairs, set
// them, encode.
func refSplice(s *Schema, r Row, delta []byte) ([]byte, error) {
	r = r.Clone()
	last := -1
	for pos := 0; pos < len(delta); {
		o, w := binary.Uvarint(delta[pos:])
		if w <= 0 || w != uvarintLen(o) || o >= uint64(s.NumColumns()) || int(o) <= last {
			return nil, fmt.Errorf("bad ordinal")
		}
		last = int(o)
		pos += w
		if pos >= len(delta) {
			return nil, fmt.Errorf("no value")
		}
		k := Kind(delta[pos])
		pos++
		var v Value
		switch k {
		case 0:
		case KindInt64, KindFloat64:
			if len(delta)-pos < 8 {
				return nil, fmt.Errorf("short number")
			}
			v = Value{kind: k, num: binary.BigEndian.Uint64(delta[pos:])}
			pos += 8
		case KindString, KindBytes:
			l, w := binary.Uvarint(delta[pos:])
			if w <= 0 || w != uvarintLen(l) || l > uint64(len(delta)-pos-w) {
				return nil, fmt.Errorf("short varlen")
			}
			v = Value{kind: k, str: string(delta[pos+w : pos+w+int(l)])}
			pos += w + int(l)
		default:
			return nil, fmt.Errorf("bad kind")
		}
		r[o] = v
	}
	return Encode(s, r, nil)
}

// FuzzRowDelta holds the splice of a delta to its meaning: Splice(image,
// delta) equals decode → set → encode (refSplice), or both fail; a bad
// image fails Splice with Decode's own error. On success, AppendDelta
// of the decoded new row against the old image gives back a delta that
// names only changed columns, predicts the new image's size and splices
// to the same bytes.
func FuzzRowDelta(f *testing.F) {
	s := fuzzSchema(f)
	base := Row{Int64(7), Float64(1.5), String("medium"), Bytes([]byte{9, 9})}
	img, err := Encode(s, base, nil)
	if err != nil {
		f.Fatal(err)
	}
	nulls, _ := Encode(s, Row{Null, Null, Null, Null}, nil)
	for _, seed := range []struct{ img, delta []byte }{
		{img, nil},
		{img, deltaOf(0, Int64(8))},
		{img, deltaOf(1, Null, 3, Null)},                              // value → NULL
		{nulls, deltaOf(0, Int64(1), 2, String("x"))},                 // NULL → value
		{img, deltaOf(2, String("a much longer string than before"))}, // grows
		{img, deltaOf(2, String(""), 3, Bytes(nil))},                  // shrinks
		{img, deltaOf(3, Bytes([]byte{1}), 1, Float64(2))},            // unsorted
		{img, deltaOf(2, String("a"), 2, String("b"))},                // duplicate
		{img, deltaOf(0, Int64(8))[:5]},                               // truncated
		{img, deltaOf(0, String("wrong kind"))},
		{img[:len(img)-1], deltaOf(0, Int64(8))}, // truncated image
	} {
		f.Add(seed.img, seed.delta)
	}

	f.Fuzz(func(t *testing.T, img, delta []byte) {
		var im Image
		im.Set(s, img)
		got, err := im.Splice(nil, delta)
		old, derr := Decode(s, img)
		if derr != nil {
			if err == nil || err.Error() != derr.Error() {
				t.Fatalf("image fails Decode with %v, Splice with %v", derr, err)
			}
			return
		}
		want, rerr := refSplice(s, old, delta)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("Splice error %v, reference error %v", err, rerr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Splice = %x, decode/set/encode = %x", got, want)
		}
		nr, err := Decode(s, got)
		if err != nil {
			t.Fatal(err)
		}
		d2, size, err := im.AppendDelta(nil, nil, nr)
		if err != nil {
			t.Fatal(err)
		}
		if size != len(got) {
			t.Fatalf("AppendDelta predicts %d bytes, the image has %d", size, len(got))
		}
		again, err := im.Splice(nil, d2)
		if err != nil || !bytes.Equal(again, got) {
			t.Fatalf("re-derived delta %x splices to %x (%v), want %x", d2, again, err, got)
		}
		for pos := 0; pos < len(d2); {
			o, w := binary.Uvarint(d2[pos:])
			if bytes.Equal(AppendEncoded(old[o:o+1], nil), AppendEncoded(nr[o:o+1], nil)) {
				t.Fatalf("delta %x names unchanged column %d", d2, o)
			}
			end, _ := valueEnd(s.Column(int(o)).Kind, d2, pos+w)
			pos = end
		}
	})
}

func TestAppendDeltaRejects(t *testing.T) {
	s := testSchema(t)
	img, _ := Encode(s, Row{Int64(1), Float64(2), String("s"), Null}, nil)
	var im Image
	im.Set(s, img)
	for name, c := range map[string]struct {
		ords []int
		vals Row
	}{
		"unsorted":   {[]int{2, 1}, Row{String("a"), Float64(1)}},
		"duplicate":  {[]int{1, 1}, Row{Float64(1), Float64(2)}},
		"range":      {[]int{4}, Row{Null}},
		"kind":       {[]int{0}, Row{String("x")}},
		"arity":      {[]int{0, 1}, Row{Int64(1)}},
		"whole-size": {nil, Row{Int64(1)}},
	} {
		if _, _, err := im.AppendDelta(nil, c.ords, c.vals); err == nil {
			t.Errorf("%s: AppendDelta(%v, %v) accepted", name, c.ords, c.vals)
		}
	}
	d, size, err := im.AppendDelta(nil, []int{0, 2}, Row{Int64(1), String("longer")})
	if err != nil {
		t.Fatal(err)
	}
	if want := deltaOf(2, String("longer")); !bytes.Equal(d, want) {
		t.Fatalf("delta = %x, want only the changed column: %x", d, want)
	}
	if size != len(img)+5 {
		t.Fatalf("size = %d, want %d", size, len(img)+5)
	}
}
