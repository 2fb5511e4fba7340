package row

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Column{Name: "id", Kind: KindInt64},
		Column{Name: "amount", Kind: KindFloat64},
		Column{Name: "name", Kind: KindString},
		Column{Name: "payload", Kind: KindBytes},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := testSchema(t)
	r := Row{Int64(-42), Float64(3.5), String("hello\x00world"), Bytes([]byte{0, 1, 2})}
	buf, err := Encode(s, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != EncodedSize(r) {
		t.Errorf("EncodedSize = %d, actual %d", EncodedSize(r), len(buf))
	}
	got, err := Decode(s, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) {
		t.Errorf("round trip mismatch: %v vs %v", got, r)
	}
}

func TestEncodeDecodeNulls(t *testing.T) {
	s := testSchema(t)
	r := Row{Null, Null, Null, Null}
	buf, err := Encode(s, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(s, buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if !v.IsNull() {
			t.Errorf("column %d: want NULL, got %v", i, v)
		}
	}
}

func TestEncodeRejectsWrongArity(t *testing.T) {
	s := testSchema(t)
	if _, err := Encode(s, Row{Int64(1)}, nil); err == nil {
		t.Fatal("want arity error")
	}
}

func TestEncodeRejectsWrongKind(t *testing.T) {
	s := testSchema(t)
	r := Row{String("oops"), Float64(1), String("x"), Bytes(nil)}
	if _, err := Encode(s, r, nil); err == nil {
		t.Fatal("want kind error")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	s := testSchema(t)
	cases := [][]byte{
		nil,
		{0xFF},
		{byte(KindInt64), 1, 2, 3}, // truncated int
		{byte(KindString), 0x05, 'a'},
	}
	for i, buf := range cases {
		if _, err := Decode(s, buf); err == nil {
			t.Errorf("case %d: want decode error", i)
		}
	}
}

func TestDecodeRejectsTrailing(t *testing.T) {
	s := testSchema(t)
	r := Row{Int64(1), Float64(2), String("x"), Bytes(nil)}
	buf, err := Encode(s, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(s, append(buf, 0x00)); err == nil {
		t.Fatal("want trailing-bytes error")
	}
}

func TestRoundTripProperty(t *testing.T) {
	s := testSchema(t)
	f := func(id int64, amt float64, name string, payload []byte) bool {
		r := Row{Int64(id), Float64(amt), String(name), Bytes(payload)}
		buf, err := Encode(s, r, nil)
		if err != nil {
			return false
		}
		got, err := Decode(s, buf)
		if err != nil {
			return false
		}
		// Bytes(nil) decodes as empty non-nil slice; compare contents.
		return got[0].Equal(r[0]) && got[1].Equal(r[1]) && got[2].Equal(r[2]) &&
			string(got[3].Raw()) == string(payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRowCloneIsDeep(t *testing.T) {
	payload := []byte{1, 2, 3}
	r := Row{Bytes(payload)}
	c := r.Clone()
	payload[0] = 99
	if c[0].Raw()[0] != 1 {
		t.Fatal("Clone shares bytes with original")
	}
}

func TestSchemaOrdinals(t *testing.T) {
	s := testSchema(t)
	ords, err := s.Ordinals("name", "id")
	if err != nil {
		t.Fatal(err)
	}
	if ords[0] != 2 || ords[1] != 0 {
		t.Errorf("Ordinals = %v", ords)
	}
	if _, err := s.Ordinals("nope"); err == nil {
		t.Fatal("want unknown-column error")
	}
	if s.Ordinal("nope") != -1 {
		t.Fatal("Ordinal of missing column should be -1")
	}
}

func TestNewSchemaRejectsDuplicates(t *testing.T) {
	_, err := NewSchema(Column{Name: "a", Kind: KindInt64}, Column{Name: "a", Kind: KindInt64})
	if err == nil {
		t.Fatal("want duplicate error")
	}
	_, err = NewSchema()
	if err == nil {
		t.Fatal("want empty-schema error")
	}
	_, err = NewSchema(Column{Name: "", Kind: KindInt64})
	if err == nil {
		t.Fatal("want empty-name error")
	}
	_, err = NewSchema(Column{Name: "a", Kind: Kind(99)})
	if err == nil {
		t.Fatal("want bad-kind error")
	}
}

// Decode makes one []Value per row read; the size of Value is most of
// what that costs.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 32 {
		t.Fatalf("Value is %d bytes, want <= 32", n)
	}
}

// TestDecodeStringsShareOneCopy checks that Decode backs all string
// columns of a row with one copy of the input (two allocations per row
// whatever its string count: the row and that copy), while each bytes
// column keeps a copy of its own.
func TestDecodeStringsShareOneCopy(t *testing.T) {
	s, err := NewSchema(
		Column{Name: "a", Kind: KindString},
		Column{Name: "b", Kind: KindBytes},
		Column{Name: "c", Kind: KindString},
		Column{Name: "d", Kind: KindString},
	)
	if err != nil {
		t.Fatal(err)
	}
	in := Row{String("first"), Bytes([]byte("blob")), String(""), String("third")}
	buf, err := Encode(s, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := Decode(s, buf); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 3 {
		t.Fatalf("decode of a row with three strings and one bytes column allocates %.1f, want 3", avg)
	}
	r, err := Decode(s, buf)
	if err != nil {
		t.Fatal(err)
	}
	r[1].Raw()[0] = 'X'
	for i := range buf {
		buf[i] = 0
	}
	if want := (Row{String("first"), Bytes([]byte("Xlob")), String(""), String("third")}); !r.Equal(want) {
		t.Fatalf("decoded %v, want %v", r, want)
	}
}

// TestProjectedDecodeAllocs gates the projected decode: a
// projection of int columns allocates nothing, one of strings allocates
// their payloads once, and what it returns shares no memory with the
// parsed buffer.
func TestProjectedDecodeAllocs(t *testing.T) {
	s := MustSchema(
		Column{Name: "id", Kind: KindInt64},
		Column{Name: "first", Kind: KindString},
		Column{Name: "n", Kind: KindInt64},
		Column{Name: "data", Kind: KindString},
	)
	buf, err := Encode(s, Row{Int64(7), String("ada"), Int64(9), String("a long payload the projection skips")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var im Image
	ints, strs := make(Row, 2), make(Row, 2)
	for _, c := range []struct {
		ords   []int
		dst    Row
		allocs float64
	}{{[]int{2, 0}, ints, 0}, {[]int{1, 0}, strs, 1}} {
		avg := testing.AllocsPerRun(100, func() {
			im.Set(s, buf)
			if err := im.Decode(c.ords, c.dst); err != nil {
				t.Fatal(err)
			}
		})
		if avg != c.allocs {
			t.Fatalf("projection %v allocates %.1f, want %.0f", c.ords, avg, c.allocs)
		}
	}
	for i := range buf {
		buf[i] = 0
	}
	if want := (Row{Int64(9), Int64(7)}); !ints.Equal(want) {
		t.Fatalf("int projection = %v, want %v", ints, want)
	}
	if want := (Row{String("ada"), Int64(7)}); !strs.Equal(want) {
		t.Fatalf("string projection = %v after the buffer was zeroed, want %v", strs, want)
	}
	if err := im.Decode([]int{4}, make(Row, 1)); err == nil {
		t.Fatal("decode of ordinal 4 of a 4-column row succeeded")
	}
}
