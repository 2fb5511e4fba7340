package server

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/btrim"
	"repro/internal/sql"
)

// multiFrame encodes a batch response the way the server does: one
// length-prefixed response per result (nil: an OK).
func multiFrame(results ...*sql.Result) []byte {
	out := binary.AppendUvarint([]byte{tagMulti}, uint64(len(results)))
	for _, res := range results {
		if res == nil {
			res = &sql.Result{Affected: 1, Msg: "UPDATE"}
		}
		sub := encodeResponse(nil, res, nil)
		out = binary.AppendUvarint(out, uint64(len(sub)))
		out = append(out, sub...)
	}
	return out
}

// batchOf is a batch of k statements: rows results of three rows, each
// followed by an OK.
func batchOf(k int) ([]byte, int) {
	var results []*sql.Result
	for i := 0; i < k; i++ {
		results = append(results, rowsResult(3), nil)
	}
	return multiFrame(results...), len(results)
}

func rowsResult(n int) *sql.Result {
	res := &sql.Result{Cols: []string{"id", "name", "price", "blob"}}
	for i := 0; i < n; i++ {
		res.Rows = append(res.Rows, btrim.Row{
			btrim.Int64(int64(i)), btrim.String(fmt.Sprintf("name-%d", i)),
			btrim.Float64(float64(i) / 4), btrim.Null,
		})
	}
	return res
}

// TestDecodeResponseAllocs gates the client's response decoder: every
// row of a response is carved out of one value array, and every string
// out of one copy of the payload, so decoding allocates the same for 10
// rows as for 100.
func TestDecodeResponseAllocs(t *testing.T) {
	var prev float64
	for _, n := range []int{10, 100} {
		buf := encodeResponse(nil, rowsResult(n), nil)
		avg := testing.AllocsPerRun(200, func() {
			if _, err := decodeResponse(buf); err != nil {
				t.Fatal(err)
			}
		})
		// Measured 5: the result, its column names, the payload copy,
		// the value array and the row headers.
		t.Logf("%d-row response: %.1f allocs", n, avg)
		if avg > 6 {
			t.Fatalf("%d-row response allocates %.1f, budget 6 (O(1))", n, avg)
		}
		if n > 10 && avg != prev {
			t.Fatalf("%d-row response allocates %.1f, 10 rows %.1f: decoding allocates per row", n, avg, prev)
		}
		prev = avg
	}
	// A batch decodes into one arena: its allocations do not grow with
	// the number of statements either. Measured 6: the payload copy, the
	// results, the column names, the row headers, the values and the
	// StmtResults.
	prev = 0
	for _, k := range []int{1, 10, 50} {
		buf, want := batchOf(k)
		avg := testing.AllocsPerRun(200, func() {
			if _, err := decodeMulti(buf, want); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d-statement batch: %.1f allocs", want, avg)
		if avg > 6 {
			t.Fatalf("%d-statement batch allocates %.1f, budget 6 (O(1))", want, avg)
		}
		if k > 1 && avg != prev {
			t.Fatalf("%d-statement batch allocates %.1f, 2 statements %.1f: decoding allocates per statement", want, avg, prev)
		}
		prev = avg
	}
}

// TestDecodeResponseOwnsPayload checks that a decoded result shares no
// memory with the frame buffer, which the client reuses for the next
// response, and that rows cut from one array do not overlap.
func TestDecodeResponseOwnsPayload(t *testing.T) {
	want := rowsResult(20)
	want.Rows[3][3] = btrim.Bytes([]byte{1, 2, 3})
	want.Warning = "partial"
	buf := encodeResponse(nil, want, nil)
	got, err := decodeResponse(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xee
	}
	got.Rows[0] = append(got.Rows[0], btrim.Int64(-1)) // must not spill into row 1
	got.Rows[3][3].Raw()[0] = 9                        // bytes values are the caller's
	want.Rows[3][3] = btrim.Bytes([]byte{9, 2, 3})
	if got.Warning != want.Warning || len(got.Cols) != len(want.Cols) || len(got.Rows) != len(want.Rows) {
		t.Fatalf("decoded %+v", got)
	}
	for i, c := range want.Cols {
		if got.Cols[i] != c {
			t.Fatalf("column %d = %q, want %q", i, got.Cols[i], c)
		}
	}
	for i, r := range want.Rows {
		if !got.Rows[i][:len(r)].Equal(r) {
			t.Fatalf("row %d = %v, want %v", i, got.Rows[i], r)
		}
	}
}

// TestDecodeMultiOwnsPayload is TestDecodeResponseOwnsPayload for a
// batch: its results share one arena, yet none shares memory with the
// frame buffer and no statement's rows run into the next statement's.
func TestDecodeMultiOwnsPayload(t *testing.T) {
	a, b := rowsResult(4), rowsResult(5)
	a.Rows[1][3] = btrim.Bytes([]byte{1, 2, 3})
	b.Warning = "partial"
	buf := multiFrame(a, nil, b)
	got, err := decodeMulti(buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xee
	}
	ra, ok, rb := got[0].Res, got[1].Res, got[2].Res
	if got[0].Err != nil || got[1].Err != nil || got[2].Err != nil {
		t.Fatalf("decoded %+v", got)
	}
	ra.Rows[3] = append(ra.Rows[3], btrim.Int64(-1)) // must not spill into b's rows
	ra.Rows = append(ra.Rows, btrim.Row{btrim.Int64(-2)})
	ra.Cols = append(ra.Cols, "spill")
	ra.Rows[1][3].Raw()[0] = 9 // bytes values are the caller's
	a.Rows[1][3] = btrim.Bytes([]byte{9, 2, 3})
	if ok.Affected != 1 || ok.Msg != "UPDATE" || ok.Cols != nil {
		t.Fatalf("OK result decoded as %+v", ok)
	}
	for _, c := range []struct{ got, want *sql.Result }{{ra, a}, {rb, b}} {
		if c.got.Warning != c.want.Warning || len(c.got.Cols) < len(c.want.Cols) || len(c.got.Rows) < len(c.want.Rows) {
			t.Fatalf("decoded %+v, want %+v", c.got, c.want)
		}
		for i, col := range c.want.Cols {
			if c.got.Cols[i] != col {
				t.Fatalf("column %d = %q, want %q", i, c.got.Cols[i], col)
			}
		}
		for i, r := range c.want.Rows {
			if !c.got.Rows[i][:len(r)].Equal(r) {
				t.Fatalf("row %d = %v, want %v", i, c.got.Rows[i], r)
			}
		}
	}
}
