package row

import (
	"bytes"
	"hash/crc32"
	"testing"
)

// fuzzSchema covers every column kind, including one nullable slot of
// each variable-length kind.
func fuzzSchema(t interface{ Fatal(...any) }) *Schema {
	s, err := NewSchema(
		Column{Name: "id", Kind: KindInt64},
		Column{Name: "weight", Kind: KindFloat64},
		Column{Name: "name", Kind: KindString},
		Column{Name: "blob", Kind: KindBytes},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// FuzzRowDecode hammers the row codec with arbitrary bytes. Decode
// parses row images straight off WAL replay and page reads: it must
// reject malformed input with an error, never panic, and stay canonical
// (a successful decode re-encodes to the identical bytes). The row must
// own its payloads: its strings share one copy of the input, so writing
// to the input or to a bytes column must not change them. The projected
// decode (Image.Decode of a column list drawn from the input, which
// checks the whole image however few columns it returns) must fail
// exactly when Decode fails, with the same error, and otherwise equal
// Decode followed by projection; the key Image.AppendKey reads in place
// must equal AppendKeyOf over the decoded row.
func FuzzRowDecode(f *testing.F) {
	s := fuzzSchema(f)
	for _, r := range []Row{
		{Int64(1), Float64(2.5), String("alice"), Bytes([]byte{1, 2, 3})},
		{Int64(-9), Null, String(""), Null},
		{Null, Null, Null, Null},
	} {
		enc, err := Encode(s, r, nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	// Regression: a varlen length near 2^64 used to wrap the int bounds
	// arithmetic and panic the slice expression.
	f.Add([]byte{byte(KindInt64), 0, 0, 0, 0, 0, 0, 0, 1,
		byte(KindFloat64), 0, 0, 0, 0, 0, 0, 0, 0,
		byte(KindString), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, buf []byte) {
		r, err := Decode(s, buf)
		ords := fuzzOrds(buf, s.NumColumns())
		var im Image
		im.Set(s, buf)
		proj := make(Row, len(ords))
		perr := im.Decode(ords, proj)
		if (err == nil) != (perr == nil) || err != nil && err.Error() != perr.Error() {
			t.Fatalf("Decode error %v, projected decode of %v: error %v", err, ords, perr)
		}
		if err != nil {
			return
		}
		for j, o := range ords {
			if !proj[j].Equal(r[o]) {
				t.Fatalf("projected column %d (ordinal %d) = %v, Decode has %v", j, o, proj[j], r[o])
			}
		}
		wantKey, err := KeyOf(r, ords)
		if err != nil {
			t.Fatal(err)
		}
		if gotKey, err := im.AppendKey(nil, ords); err != nil || !bytes.Equal(gotKey, wantKey) {
			t.Fatalf("key of %v read in place = %x (%v), from the decoded row %x", ords, gotKey, err, wantKey)
		}
		got, err := Encode(s, r, nil)
		if err != nil {
			t.Fatalf("decoded row fails re-encode: %v", err)
		}
		if !bytes.Equal(got, buf) {
			t.Fatalf("decode/encode round trip drifted:\n in  %x\n out %x", buf, got)
		}
		want, err := Decode(s, got)
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] ^= 0xff
		}
		for _, v := range r {
			if v.Kind() == KindBytes {
				for i := range v.Raw() {
					v.Raw()[i] ^= 0xff
				}
			}
		}
		for i, v := range r {
			if v.Kind() == KindString && v.Str() != want[i].Str() {
				t.Fatalf("column %d = %q after writes to the input and to bytes columns, want %q", i, v.Str(), want[i].Str())
			}
		}
	})
}

// fuzzOrds draws a column list from the input itself (the seed corpus
// holds single byte slices): up to five in-range ordinals, repeats and
// any order allowed.
func fuzzOrds(buf []byte, n int) []int {
	h := crc32.ChecksumIEEE(buf)
	ords := make([]int, h%6)
	for i := range ords {
		h = h*1103515245 + 12345
		ords[i] = int(h>>16) % n
	}
	return ords
}
