package colseg

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rid"
	"repro/internal/row"
)

var testSchema = row.MustSchema(
	row.Column{Name: "id", Kind: row.KindInt64},
	row.Column{Name: "qty", Kind: row.KindInt64},
	row.Column{Name: "amount", Kind: row.KindFloat64},
	row.Column{Name: "dist", Kind: row.KindString},
	row.Column{Name: "info", Kind: row.KindBytes},
)

func testRow(i int) row.Row {
	r := row.Row{
		row.Int64(int64(1000 + i)), // sequential → delta
		row.Int64(int64(i % 5)),    // low cardinality → dict
		row.Float64(float64(i) * 1.5),
		row.String(fmt.Sprintf("dist-%d", i%3)), // low cardinality → dict
		row.Bytes([]byte{byte(i), byte(i >> 8)}),
	}
	if i%7 == 0 {
		r[4] = row.Null
	}
	return r
}

func buildSegment(t testing.TB, n int, forceRaw bool) (*Segment, [][]byte) {
	t.Helper()
	w := NewWriter(7, 3, testSchema, forceRaw)
	var encs [][]byte
	for i := 0; i < n; i++ {
		enc, err := row.Encode(testSchema, testRow(i), nil)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		encs = append(encs, enc)
		if err := w.Add(rid.NewVirtual(3, uint64(100+i*3)), enc); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	blob, err := w.Finish(nil)
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	seg, err := Open(blob)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return seg, encs
}

func TestSegmentRoundTrip(t *testing.T) {
	const n = 200
	seg, encs := buildSegment(t, n, false)
	if seg.Rows() != n || seg.TableID() != 7 || seg.Part() != 3 {
		t.Fatalf("header mismatch: rows=%d table=%d part=%d", seg.Rows(), seg.TableID(), seg.Part())
	}
	for i := 0; i < n; i++ {
		if got, want := seg.RIDAt(i), rid.NewVirtual(3, uint64(100+i*3)); got != want {
			t.Fatalf("rid %d: got %v want %v", i, got, want)
		}
		enc, err := seg.EncodeRowAt(i, nil)
		if err != nil {
			t.Fatalf("encode row %d: %v", i, err)
		}
		if !bytes.Equal(enc, encs[i]) {
			t.Fatalf("row %d: re-encoding differs\n got %x\nwant %x", i, enc, encs[i])
		}
	}
}

func TestSegmentCompresses(t *testing.T) {
	seg, _ := buildSegment(t, 1024, false)
	if seg.Size() >= int(seg.RawBytes()) {
		t.Fatalf("segment (%d bytes) not smaller than raw rows (%d bytes)", seg.Size(), seg.RawBytes())
	}
	raw, _ := buildSegment(t, 1024, true)
	if raw.Size() <= seg.Size() {
		t.Fatalf("forceRaw segment (%d bytes) not larger than compressed (%d bytes)", raw.Size(), seg.Size())
	}
}

func TestAppendColumn(t *testing.T) {
	const n = 100
	for _, forceRaw := range []bool{false, true} {
		seg, _ := buildSegment(t, n, forceRaw)
		for ci := 0; ci < testSchema.NumColumns(); ci++ {
			var v Vec
			v.Reset(testSchema.Column(ci).Kind)
			if err := seg.AppendColumn(ci, &v); err != nil {
				t.Fatalf("append column %d: %v", ci, err)
			}
			if v.Len() != n {
				t.Fatalf("column %d: %d rows, want %d", ci, v.Len(), n)
			}
			for i := 0; i < n; i++ {
				want := testRow(i)[ci]
				if want.IsNull() {
					if !v.IsNull(i) {
						t.Fatalf("column %d row %d: want null", ci, i)
					}
					continue
				}
				if v.IsNull(i) {
					t.Fatalf("column %d row %d: unexpected null", ci, i)
				}
				switch v.Kind {
				case row.KindInt64:
					if v.I64[i] != want.Int() {
						t.Fatalf("column %d row %d: got %d want %d", ci, i, v.I64[i], want.Int())
					}
				case row.KindFloat64:
					if v.F64[i] != want.Float() {
						t.Fatalf("column %d row %d: got %v want %v", ci, i, v.F64[i], want.Float())
					}
				default:
					wb := []byte(nil)
					if want.Kind() == row.KindString {
						wb = []byte(want.Str())
					} else {
						wb = want.Raw()
					}
					if !bytes.Equal(v.Str[i], wb) {
						t.Fatalf("column %d row %d: got %q want %q", ci, i, v.Str[i], wb)
					}
				}
			}
		}
	}
}

func TestVecAppendSelect(t *testing.T) {
	seg, _ := buildSegment(t, 50, false)
	var src, dst Vec
	src.Reset(row.KindInt64)
	if err := seg.AppendColumn(0, &src); err != nil {
		t.Fatal(err)
	}
	dst.Reset(row.KindInt64)
	idx := []int32{3, 7, 7, 49}
	dst.AppendSelect(&src, idx)
	if dst.Len() != len(idx) {
		t.Fatalf("len %d want %d", dst.Len(), len(idx))
	}
	for j, i := range idx {
		if dst.I64[j] != src.I64[i] {
			t.Fatalf("select %d: got %d want %d", j, dst.I64[j], src.I64[i])
		}
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	seg, _ := buildSegment(t, 64, false)
	blob := seg.Blob()

	if _, err := Open(nil); err == nil {
		t.Fatal("nil blob accepted")
	}
	if _, err := Open(blob[:len(blob)-1]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	if _, err := Open(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	if _, err := Open(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte(nil), blob...)
	bad[4] = 9
	if _, err := Open(bad); err == nil {
		t.Fatal("bad version accepted")
	}
	// Every single-byte truncation must be rejected or decode to a valid
	// segment (it can't: row/col counts pin the shape), never panic.
	for i := range blob {
		if _, err := Open(blob[:i]); err == nil {
			t.Fatalf("prefix of %d bytes accepted", i)
		}
	}
}

func TestStoreLifecycle(t *testing.T) {
	st := NewStore()
	seg, _ := buildSegment(t, 10, false)
	seg.FreezeTS = 100
	st.Publish(seg)

	r := seg.RIDAt(4)
	if sg, idx, k, ok := st.Lookup(r); !ok || sg != seg || idx != 4 || k != 0 {
		t.Fatalf("lookup after publish: sg=%v idx=%d k=%d ok=%v", sg, idx, k, ok)
	}
	if !seg.NewestAt(4, 1<<62) {
		t.Fatal("fresh row not newest")
	}
	if !st.Kill(r, 120, true) {
		t.Fatal("kill of live row failed")
	}
	if st.Kill(r, 130, false) {
		t.Fatal("double kill succeeded")
	}
	if _, _, k, ok := st.Lookup(r); !ok || k != 120 {
		t.Fatalf("killed row lookup: k=%d ok=%v", k, ok)
	}
	if seg.LiveRows() != 9 {
		t.Fatalf("live rows %d want 9", seg.LiveRows())
	}
	// A versioned kill keeps the copy for older snapshots only.
	if !seg.Visible(4, 119) || seg.Visible(4, 120) || !seg.Visible(5, 1<<62) {
		t.Fatal("versioned kill visibility")
	}
	// A read-committed kill hides the copy from every snapshot.
	if !st.Kill(seg.RIDAt(6), 140, false) || seg.Visible(6, 0) || seg.KillTS(6) != 140 {
		t.Fatal("read-committed kill visibility")
	}

	// Re-freeze the same RIDs into a newer segment: the old copies are
	// superseded as of its FreezeTS.
	seg2, _ := buildSegment(t, 10, false)
	seg2.FreezeTS = 200
	st.Publish(seg2)
	for i := 0; i < 10; i++ {
		if !seg.NewestAt(i, 199) || seg.NewestAt(i, 200) {
			t.Fatalf("old copy %d: newest at 199 and not at 200", i)
		}
		if !seg2.NewestAt(i, 1<<62) {
			t.Fatalf("new copy %d not newest", i)
		}
	}
	stats := st.Stats()
	if stats.Segments != 2 || stats.SegmentsWritten != 2 || stats.RowsFrozen != 20 || stats.Kills != 2 {
		t.Fatalf("stats: %+v", stats)
	}
	ps := st.PartStats(3)
	if ps.Segments != 2 || ps.Rows != 20 || ps.LiveRows != 18 {
		t.Fatalf("part stats: %+v", ps)
	}
}

func TestWriterRejectsForeignRID(t *testing.T) {
	w := NewWriter(1, 3, testSchema, false)
	enc, _ := row.Encode(testSchema, testRow(1), nil)
	if err := w.Add(rid.NewVirtual(4, 1), enc); err == nil {
		t.Fatal("foreign-partition rid accepted")
	}
	if err := w.Add(rid.Zero, enc); err == nil {
		t.Fatal("zero rid accepted")
	}
}

func TestWriterRandomizedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	schema := row.MustSchema(
		row.Column{Name: "a", Kind: row.KindInt64},
		row.Column{Name: "b", Kind: row.KindFloat64},
		row.Column{Name: "c", Kind: row.KindString},
	)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		w := NewWriter(1, 1, schema, rng.Intn(2) == 0)
		var encs [][]byte
		for i := 0; i < n; i++ {
			r := row.Row{row.Null, row.Null, row.Null}
			if rng.Intn(4) > 0 {
				r[0] = row.Int64(rng.Int63n(1 << uint(rng.Intn(60))))
			}
			if rng.Intn(4) > 0 {
				r[1] = row.Float64(rng.NormFloat64())
			}
			if rng.Intn(4) > 0 {
				r[2] = row.String(fmt.Sprintf("s%d", rng.Intn(1+rng.Intn(40))))
			}
			enc, err := row.Encode(schema, r, nil)
			if err != nil {
				t.Fatal(err)
			}
			encs = append(encs, enc)
			if err := w.Add(rid.NewPhysical(1, rid.PageID(i/10), uint16(i%10)), enc); err != nil {
				t.Fatal(err)
			}
		}
		blob, err := w.Finish(nil)
		if err != nil {
			t.Fatalf("trial %d finish: %v", trial, err)
		}
		seg, err := Open(blob)
		if err != nil {
			t.Fatalf("trial %d open: %v", trial, err)
		}
		for i := 0; i < n; i++ {
			enc, err := seg.EncodeRowAt(i, nil)
			if err != nil {
				t.Fatalf("trial %d row %d: %v", trial, i, err)
			}
			if !bytes.Equal(enc, encs[i]) {
				t.Fatalf("trial %d row %d mismatch", trial, i)
			}
		}
	}
}
